package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/workload"
)

// This file prices fault tolerance the paper's way: checkpoint/rollback
// recovery keeps a crashed run alive on the survivors, and every cost it
// adds — checkpoint writes, detection latency, recomputed work — lands in
// T and therefore in the achieved speed-efficiency. Where the crash-restart
// table reported a torn-down run plus a from-scratch rerun, the recovered
// sweep reports one finite run that rolled back and finished.

// recoveredInterval is the checkpoint cadence (in GE pivots) used by the
// recovered sweep; the interval ablation varies it.
const recoveredInterval = 50

// recoveredGESpec is the shared run setup of both recovery experiments:
// blind nominal distribution, so redistribution after a crash stays
// proportional to the surviving marked speeds.
func recoveredGESpec(s *Suite, cl *cluster.Cluster) workload.Spec {
	return workload.Spec{
		N:            faultSweepN,
		Seed:         s.Cfg.Seed,
		Symbolic:     true,
		PinnedSpeeds: cl.Speeds(),
	}
}

// crashScenario is one named fault plan, its crash instants a fraction
// of the fault-free makespan.
type crashScenario struct {
	label   string
	crashes func(baseT float64) []faults.Crash
}

// crashScenarios are the failures both CrashRestart and RecoveredSweep
// price, under fail-stop restart and under rollback recovery. Rank 0
// owns the input matrix, so it never crashes here: losing it would lose
// the job, not delay it.
var crashScenarios = []crashScenario{
	{"rank 3 early", func(t float64) []faults.Crash {
		return []faults.Crash{{Rank: 3, AtMS: 0.25 * t}}
	}},
	{"rank 3 late", func(t float64) []faults.Crash {
		return []faults.Crash{{Rank: 3, AtMS: 0.75 * t}}
	}},
	{"ranks 2+5 mid", func(t float64) []faults.Crash {
		return []faults.Crash{{Rank: 2, AtMS: 0.5 * t}, {Rank: 5, AtMS: 0.5 * t}}
	}},
}

// RecoveredSweep reruns the crash-restart scenarios under checkpoint/
// rollback recovery: the run survives the crash, rolls back to the last
// committed checkpoint, and finishes on the survivors. ψ compares the
// recovered configuration to the fault-free one — finite where the
// pre-recovery sweep reported aborts.
func (s *Suite) RecoveredSweep(ctx context.Context) (*Table, error) {
	cl, err := cluster.GEConfig(faultSweepP)
	if err != nil {
		return nil, err
	}
	ge := workload.MustGet("ge")
	opts := s.Cfg.mpiOpts()
	spec := recoveredGESpec(s, cl)
	base, err := ge.Run(ctx, cl, s.model, opts, spec)
	if err != nil {
		return nil, err
	}
	baseEff, err := core.SpeedEfficiency(base.Work, base.VirtualTime, cl.MarkedSpeed())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Recovered sweep: GE at N = %d on %s, checkpoint every %d pivots (fault-free T = %.2f ms)",
			faultSweepN, cl.Name, recoveredInterval, base.VirtualTime),
		Headers: []string{"Scenario", "Attempts", "Ckpts", "T (ms)", "Slowdown", "E_s @ nominal C", "ψ vs fault-free"},
	}
	rspec := spec
	rspec.Recover, rspec.CkptSteps = true, recoveredInterval
	addRow := func(label string, withFaults []faults.Crash) error {
		fopts := opts
		if withFaults != nil {
			plan := faults.Plan{Seed: s.Cfg.Seed, Crashes: withFaults}
			_, _, inj, err := plan.Apply(cl, s.model)
			if err != nil {
				return err
			}
			fopts.Faults = inj
		}
		out, err := ge.Run(ctx, cl, s.model, fopts, rspec)
		if err != nil {
			return fmt.Errorf("experiments: recovered scenario %q: %w", label, err)
		}
		rec := out.Stats
		eff, err := core.SpeedEfficiency(out.Work, rec.TimeMS, cl.MarkedSpeed())
		if err != nil {
			return err
		}
		t.AddRow(
			label,
			fmt.Sprintf("%d", rec.Attempts),
			fmt.Sprintf("%d", rec.Checkpoints),
			fmtFloat(rec.TimeMS, 2),
			fmtFloat(rec.TimeMS/base.VirtualTime, 2),
			fmtFloat(eff, 4),
			fmtFloat(eff/baseEff, 4),
		)
		return nil
	}
	if err := addRow("fault-free + ckpt", nil); err != nil {
		return nil, err
	}
	for _, sc := range crashScenarios {
		if err := addRow(sc.label, sc.crashes(base.VirtualTime)); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"every scenario completes with a finite T: the crash-restart table priced the same failures as tear-down + rerun",
		"the fault-free + ckpt row isolates the insurance premium: checkpoint writes with no failure to amortize them",
		"W is unchanged, so ψ = E'_s/E_s is the pure slowdown of surviving the crash (rollback + redistribution included)")
	return t, nil
}

// checkpointIntervals is the ablation grid: 0 disables checkpointing
// (recovery restarts from scratch), the rest trade write overhead against
// rollback distance.
var checkpointIntervals = []int{0, 25, 50, 100, 200}

// CheckpointInterval ablates the checkpoint cadence per Theorem 1: each
// committed checkpoint adds a work-independent write term to the parallel
// overhead To (depressing healthy E_s), but shortens the rollback window a
// crash forces the survivors to recompute. The optimum interval balances
// the two — the classic Young/Daly trade-off expressed in isospeed terms.
func (s *Suite) CheckpointInterval(ctx context.Context) (*Table, error) {
	cl, err := cluster.GEConfig(faultSweepP)
	if err != nil {
		return nil, err
	}
	ge := workload.MustGet("ge")
	opts := s.Cfg.mpiOpts()
	spec := recoveredGESpec(s, cl)
	base, err := ge.Run(ctx, cl, s.model, opts, spec)
	if err != nil {
		return nil, err
	}
	crash := []faults.Crash{{Rank: 3, AtMS: 0.5 * base.VirtualTime}}
	plan := faults.Plan{Seed: s.Cfg.Seed, Crashes: crash}
	_, _, inj, err := plan.Apply(cl, s.model)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Checkpoint-interval ablation: GE at N = %d on %s, rank 3 crashes at %.2f ms (fault-free T = %.2f ms)",
			faultSweepN, cl.Name, crash[0].AtMS, base.VirtualTime),
		Headers: []string{"Interval (pivots)", "Ckpts", "T healthy (ms)", "Ckpt overhead", "T crashed (ms)", "Crashed slowdown", "E_s crashed"},
	}
	for _, interval := range checkpointIntervals {
		rspec := spec
		rspec.Recover, rspec.CkptSteps = true, interval
		healthy, err := ge.Run(ctx, cl, s.model, opts, rspec)
		if err != nil {
			return nil, fmt.Errorf("experiments: healthy interval %d: %w", interval, err)
		}
		fopts := opts
		fopts.Faults = inj
		out, err := ge.Run(ctx, cl, s.model, fopts, rspec)
		if err != nil {
			return nil, fmt.Errorf("experiments: crashed interval %d: %w", interval, err)
		}
		crashed := out.Stats
		eff, err := core.SpeedEfficiency(out.Work, crashed.TimeMS, cl.MarkedSpeed())
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", interval),
			fmt.Sprintf("%d", healthy.Stats.Checkpoints),
			fmtFloat(healthy.Stats.TimeMS, 2),
			fmtFloat(healthy.Stats.TimeMS/base.VirtualTime, 3),
			fmtFloat(crashed.TimeMS, 2),
			fmtFloat(crashed.TimeMS/base.VirtualTime, 2),
			fmtFloat(eff, 4),
		)
	}
	t.Notes = append(t.Notes,
		"interval 0 = no checkpoints: recovery restarts from scratch on the survivors (rollback window = everything)",
		"checkpoint writes enter Theorem 1 as an extra To term: To' = To + ceil(steps/interval) * Tckpt, so healthy E_s falls as the interval shrinks",
		"the crashed column shows the other side of the trade: a short interval bounds the recomputed work after the rollback",
		"the crashed-T minimum is the Young/Daly optimum in virtual time; it moves toward longer intervals as stable storage gets slower")
	return t, nil
}
