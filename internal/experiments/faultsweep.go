package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/workload"
)

// This file extends the study to degraded systems: the isospeed-efficiency
// metric quotes the marked (benchmarked) speed C, so any runtime
// degradation — stragglers, lossy links, crashed nodes — shows up as a
// drop in achieved speed-efficiency, and the ratio to the fault-free
// baseline is exactly ψ(C,C') between the healthy and the degraded
// configuration of the same machine.

// Fixed fault-study parameters. One system size and one problem size:
// the sweep varies the fault intensity, everything else is pinned.
const (
	faultSweepP = 8
	faultSweepN = 400
)

// faultIntensities is the sweep grid for the one-knob fault model.
var faultIntensities = []float64{0, 0.25, 0.5, 0.75, 1}

// FaultSweep measures the speed-efficiency degradation of GE under
// increasing fault intensity: x = 0 is the healthy baseline, x = 1 has a
// quarter of the nodes straggling at 1/3 speed, doubled latency, halved
// bandwidth and 5% message loss. The ψ column is the isospeed-efficiency
// of the degraded configuration relative to the fault-free one.
func (s *Suite) FaultSweep(ctx context.Context) (*Table, error) {
	cl, err := cluster.GEConfig(faultSweepP)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Fault sweep: GE at N = %d on %s (blind distribution, nominal C = %.1f Mflops)",
			faultSweepN, cl.Name, cl.MarkedSpeed()),
		Headers: []string{"Intensity x", "C_eff (Mflops)", "T (ms)", "Messages", "E_s @ nominal C", "ψ vs fault-free"},
	}
	ge := workload.MustGet("ge")
	baseEff := 0.0
	for _, x := range faultIntensities {
		spec, err := faults.Intensity(s.Cfg.Seed, x)
		if err != nil {
			return nil, err
		}
		plan, err := spec.Instantiate(cl.Size())
		if err != nil {
			return nil, err
		}
		dcl, dmodel, inj, err := plan.Apply(cl, s.model)
		if err != nil {
			return nil, err
		}
		opts := s.Cfg.mpiOpts()
		if !plan.IsZero() {
			opts.Faults = inj
		}
		out, err := ge.Run(ctx, dcl, dmodel, opts, workload.Spec{
			N: faultSweepN, Seed: s.Cfg.Seed, Symbolic: true, PinnedSpeeds: cl.Speeds(),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fault sweep x=%g: %w", x, err)
		}
		eff, err := core.SpeedEfficiency(out.Work, out.VirtualTime, cl.MarkedSpeed())
		if err != nil {
			return nil, err
		}
		if x == 0 {
			baseEff = eff
		}
		t.AddRow(
			fmtFloat(x, 2),
			fmtFloat(dcl.MarkedSpeed(), 1),
			fmtFloat(out.VirtualTime, 2),
			fmt.Sprintf("%d", out.Stats.Messages),
			fmtFloat(eff, 4),
			fmtFloat(eff/baseEff, 4),
		)
	}
	t.Notes = append(t.Notes,
		"same W at every intensity, so ψ = E'_s/E_s = T/T': pure slowdown of the degraded configuration",
		"distribution is pinned to nominal speeds (benchmarked ahead of time): stragglers keep their share and become the critical path",
		fmt.Sprintf("all fault draws derive from seed %d; rerunning this table reproduces it byte-identically", s.Cfg.Seed))
	return t, nil
}

// CrashRestart prices whole-node failures with the standard
// fail-stop/restart model: the run proceeds until the crash tears it down
// (survivors abort gracefully when they depend on the dead rank), then the
// job restarts from scratch on the surviving nodes. Total cost is the
// wasted time-to-failure plus the rerun on the smaller machine.
func (s *Suite) CrashRestart(ctx context.Context) (*Table, error) {
	cl, err := cluster.GEConfig(faultSweepP)
	if err != nil {
		return nil, err
	}
	ge := workload.MustGet("ge")
	opts := s.Cfg.mpiOpts()
	spec := workload.Spec{N: faultSweepN, Seed: s.Cfg.Seed, Symbolic: true}
	base, err := ge.Run(ctx, cl, s.model, opts, spec)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Crash-restart: GE at N = %d on %s (fault-free T = %.2f ms)",
			faultSweepN, cl.Name, base.VirtualTime),
		Headers: []string{"Scenario", "Failed at (ms)", "Survivors", "Restart T (ms)", "Total T (ms)", "Slowdown", "E_s @ nominal C"},
	}
	for _, sc := range crashScenarios {
		plan := faults.Plan{Seed: s.Cfg.Seed, Crashes: sc.crashes(base.VirtualTime)}
		_, _, inj, err := plan.Apply(cl, s.model)
		if err != nil {
			return nil, err
		}
		fopts := opts
		fopts.Faults = inj
		_, runErr := ge.Run(ctx, cl, s.model, fopts, spec)
		if runErr == nil {
			return nil, fmt.Errorf("experiments: crash plan %q did not tear down the run", sc.label)
		}
		outcome, ok := mpi.ClassifyFaults(cl.Size(), runErr)
		if !ok {
			return nil, fmt.Errorf("experiments: crash plan %q failed for a non-fault reason: %w", sc.label, runErr)
		}
		failAt := 0.0
		for _, at := range outcome.Crashed {
			if at > failAt {
				failAt = at
			}
		}
		for _, at := range outcome.Aborted {
			if at > failAt {
				failAt = at
			}
		}
		// Restart on the nodes that are still alive: aborted ranks are
		// healthy processes that lost a peer, only crashed ranks are gone.
		alive := make([]int, 0, cl.Size())
		for r := 0; r < cl.Size(); r++ {
			if _, crashed := outcome.Crashed[r]; !crashed {
				alive = append(alive, r)
			}
		}
		sort.Ints(alive)
		sub, err := cl.Subset(fmt.Sprintf("%s-survivors", cl.Name), alive...)
		if err != nil {
			return nil, err
		}
		rerun, err := ge.Run(ctx, sub, s.model, opts, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: restart of %q: %w", sc.label, err)
		}
		total := failAt + rerun.VirtualTime
		eff, err := core.SpeedEfficiency(rerun.Work, total, cl.MarkedSpeed())
		if err != nil {
			return nil, err
		}
		t.AddRow(
			sc.label,
			fmtFloat(failAt, 2),
			fmt.Sprintf("%d/%d", len(alive), cl.Size()),
			fmtFloat(rerun.VirtualTime, 2),
			fmtFloat(total, 2),
			fmtFloat(total/base.VirtualTime, 2),
			fmtFloat(eff, 4),
		)
	}
	t.Notes = append(t.Notes,
		"total = wasted time to failure + full rerun on the survivor subset (fail-stop, no checkpointing)",
		"a late crash wastes more: checkpoint/restart literature prices exactly this gap",
		"E_s keeps quoting the full nominal C, so lost nodes depress it twice: wasted work and a smaller machine")
	return t, nil
}
