package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file holds the experiments that go beyond the paper's own tables:
// a third algorithm-system combination (Jacobi), memory-bounded
// scalability (the paper's reference [9] folded into the metric), a
// three-mode network ablation, and trace-based overhead decomposition.

// JacTarget is the speed-efficiency set-point for the Jacobi chain.
const JacTarget = 0.3

// JacChainMeasured returns (memoized) the measured Jacobi ladder on the
// MM-style mixed configurations.
func (s *Suite) JacChainMeasured(ctx context.Context) (*chainResult, error) {
	return s.ChainMeasured(ctx, workload.MustGet("jacobi"), JacTarget)
}

// ThreeWay compares the scalability of all three algorithm-system
// combinations: the paper's GE and MM plus the Jacobi extension. The
// expected ordering — Jacobi ≥ MM ≥ GE — follows from their communication
// structures (nearest-neighbour < full replication < per-iteration
// broadcast).
func (s *Suite) ThreeWay(ctx context.Context) (*Table, error) {
	ge, err := s.GEChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	mm, err := s.MMChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	jac, err := s.JacChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Three algorithm-system combinations: measured isospeed-efficiency scalability",
		Headers: []string{
			"Step", "ψ GE (bcast/iter)", "ψ MM (replicate B)", "ψ Jacobi (halo)",
		},
	}
	for i := range ge.Psis {
		t.AddRow(
			fmt.Sprintf("%d -> %d nodes", s.Cfg.Sizes[i], s.Cfg.Sizes[i+1]),
			fmtFloat(ge.Psis[i], 4),
			fmtFloat(mm.Psis[i], 4),
			fmtFloat(jac.Psis[i], 4),
		)
	}
	t.Notes = append(t.Notes,
		"communication structure dictates scalability: nearest-neighbour halo > matrix replication > per-iteration broadcast",
		fmt.Sprintf("Jacobi: %d sweeps, residual all-reduce every %d, target E_s=%.2f, sweep loop timed (distribution excluded)", workload.JacobiIters, workload.JacobiCheckEvery, JacTarget))
	return t, nil
}

// MemBound folds memory capacity into the scalability question: at which
// configuration does the problem size demanded by the isospeed-efficiency
// condition stop fitting in memory? (Sun & Ni's memory-bounded speedup,
// the paper's reference [9], combined with this paper's metric.)
//
// The workload registry is the row source: every registered workload is
// checked on its own cluster ladder through the MemBytes seam — a
// registration's aggregate footprint W_mem(n), split across ranks in
// proportion to their work share. That seam-level model ignores
// layout-specific replication (MM's full-B copy, GE's root staging), so
// it is the optimistic bound: a combination it flags as memory-bounded
// is bounded under any layout.
func (s *Suite) MemBound(ctx context.Context) (*Table, error) {
	_ = ctx // analytic: no measured runs
	t := &Table{
		Title: "Memory-bounded scalability: every registered workload on Sunwulf memory sizes",
		Headers: []string{
			"Workload", "Config", "Target E_s", "Required N (model)", "Max N (memory)", "Bounded?", "Achievable E_s",
		},
	}
	// Extend each ladder far beyond the paper's 32 nodes: the bound
	// bites where required N (roughly linear in p) outruns max N
	// (~sqrt(p) under a proportional split of a quadratic footprint).
	sizes := append(append([]int(nil), s.Cfg.Sizes...), 64, 256, 1024, 2048)
	for _, w := range workload.All() {
		target := s.targetFor(w)
		for _, p := range sizes {
			cl, err := w.ClusterLadder(p)
			if err != nil {
				return nil, err
			}
			m, err := s.machineFor(w, cl)
			if err != nil {
				return nil, err
			}
			total := cl.MarkedSpeed()
			ranks := make([]core.NodeMemory, cl.Size())
			for i, node := range cl.Nodes {
				ranks[i] = core.NodeMemory{
					MemBytes: float64(node.MemMB) * (1 << 20),
					Share:    node.SpeedMflops / total,
				}
			}
			need := func(n, share float64) float64 { return share * w.MemBytes(int(n)) }
			res, err := core.MemoryBoundedCheck(m, ranks, need, target, 8, 5e6)
			if err != nil {
				return nil, fmt.Errorf("experiments: membound %s %s: %w", w.Name(), cl.Name, err)
			}
			bound := "no"
			if res.Bounded {
				bound = "YES"
			}
			t.AddRow(
				w.Name(),
				cl.Name,
				fmtFloat(target, 2),
				fmt.Sprintf("%.0f", res.RequiredN),
				fmt.Sprintf("%d", res.MaxN),
				bound,
				fmtFloat(res.AchievableEff, 4),
			)
		}
	}
	t.Notes = append(t.Notes,
		"per-rank need is the work share of the workload's aggregate footprint (MemBytes seam): the optimistic, layout-free bound",
		"the rank with the largest share-to-memory ratio binds; on Sunwulf that is a 128 MB SunBlade",
		"once required N exceeds max N, the target efficiency is unreachable: time-scalable but memory-bounded")
	return t, nil
}

// TraceDecomposition runs one traced execution of every registered
// workload and reports the per-rank time decomposition plus the
// trace-derived critical overhead — the empirical counterpart of the
// analytic To(n) models used in Tables 6-7. The registry is the source of
// truth: a newly registered workload shows up here with no edits.
func (s *Suite) TraceDecomposition(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:   "Trace decomposition, 4-node rung of each workload's ladder (virtual ms)",
		Headers: []string{"Workload", "Rank", "Compute", "Comm", "Wait", "Idle", "Total"},
	}
	for _, w := range workload.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cl, err := w.ClusterLadder(4)
		if err != nil {
			return nil, err
		}
		n := traceSize(w)
		tr := trace.New()
		opts := s.Cfg.mpiOpts()
		opts.Trace = tr
		out, err := w.Run(ctx, cl, s.model, opts, workload.Spec{N: n, Seed: s.Cfg.Seed, Symbolic: true})
		if err != nil {
			return nil, fmt.Errorf("experiments: tracedecomp %s: %w", w.Name(), err)
		}
		makespan := out.Stats.TimeMS
		for _, b := range tr.Breakdowns() {
			t.AddRow(w.Name(),
				fmt.Sprintf("%d", b.Rank),
				fmtFloat(b.ComputeMS, 1),
				fmtFloat(b.CommMS, 1),
				fmtFloat(b.WaitMS, 1),
				fmtFloat(b.IdleMS, 1),
				fmtFloat(makespan, 1),
			)
		}
		t.AddRow(w.Name(), "To*", fmtFloat(tr.CriticalOverhead(), 1), "", "", "",
			fmtFloat(makespan, 1))
		t.Notes = append(t.Notes, fmt.Sprintf("%s at N=%d on %s", w.Name(), n, cl.Name))
	}
	t.Notes = append(t.Notes,
		"To* = trace-derived critical overhead; sizes are chosen per workload so every traced run performs comparable work",
		"broadcast-per-iteration ranks (ge) wait at every pivot; halo patterns (jacobi, mg) wait only on neighbours")
	return t, nil
}

// traceSize inverts a workload's work polynomial to the smallest problem
// size performing at least ~2.5e7 flops, so traced runs are comparable
// across workloads with very different W(n) shapes.
func traceSize(w workload.Workload) int {
	const budget = 2.5e7
	hi := 8
	for hi < 4096 && w.WorkAt(hi) < budget {
		hi *= 2
	}
	lo := hi / 2
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if w.WorkAt(mid) < budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// AblateNetworks extends the contention ablation to all three wire modes
// and two traffic patterns: MM (rank-0 hot spot) and Jacobi (disjoint
// neighbour pairs). The switch helps only the pattern with parallelizable
// transfers.
func (s *Suite) AblateNetworks(ctx context.Context) (*Table, error) {
	const n = 300
	cl, err := cluster.MMConfig(8)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: network architecture (DES engine, N = %d)", n),
		Headers: []string{"Algorithm", "Network", "T (ms)", "E_s", "Slowdown vs ideal"},
	}
	spec := workload.Spec{N: n, Seed: s.Cfg.Seed, Symbolic: true}
	for _, a := range []struct {
		name string
		w    workload.Workload
	}{
		{"MM", workload.MM{}},
		{"Jacobi", workload.Jacobi{}},
	} {
		var base float64
		for _, mode := range []simnet.WireMode{simnet.WireIdeal, simnet.WireSwitched, simnet.WireShared} {
			out, err := a.w.Run(ctx, cl, s.model, mpi.Options{Engine: mpi.EngineDES, Network: mode, Trace: s.Cfg.Trace}, spec)
			if err != nil {
				return nil, err
			}
			timeMS := out.Stats.TimeMS
			if mode == simnet.WireIdeal {
				base = timeMS
			}
			eff, err := core.SpeedEfficiency(out.Work, timeMS, cl.MarkedSpeed())
			if err != nil {
				return nil, err
			}
			t.AddRow(a.name, mode.String(), fmtFloat(timeMS, 2), fmtFloat(eff, 4),
				fmtFloat(timeMS/base, 3))
		}
	}
	t.Notes = append(t.Notes,
		"MM's transfers all touch rank 0, so the switch degenerates to the bus; Jacobi's disjoint halo pairs run in parallel on the switch")
	return t, nil
}

// TimeAtScale shows the execution-time cost of scalability (the theme of
// Sun's companion work "Scalability versus Execution Time in Scalable
// Systems", the paper's reference [8]): holding E_s constant while the
// system grows means solving ever larger problems, whose execution time
// at the target efficiency is T = W/(E_s·C). The per-step time growth is
// exactly 1/ψ — scalable-but-slower made visible.
func (s *Suite) TimeAtScale(ctx context.Context) (*Table, error) {
	ge, err := s.GEChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	mm, err := s.MMChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	jac, err := s.JacChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Execution time at constant speed-efficiency (ref [8]: scalability vs execution time)",
		Headers: []string{
			"Config", "GE T (s)", "GE T'/T", "MM T (s)", "MM T'/T", "Jacobi T (s)", "Jacobi T'/T",
		},
	}
	timeOf := func(chain *chainResult, i int, target float64) float64 {
		// T = W/(E·C) with C in Mflops = 1e3 flops/ms; convert to seconds.
		return chain.Points[i].W / (target * chain.Points[i].C * 1e3) / 1e3
	}
	for i := range ge.Points {
		row := []string{ge.Points[i].Label}
		for _, cr := range []struct {
			chain  *chainResult
			target float64
		}{{ge, s.Cfg.GETarget}, {mm, s.Cfg.MMTarget}, {jac, JacTarget}} {
			tSec := timeOf(cr.chain, i, cr.target)
			ratio := "-"
			if i > 0 {
				ratio = fmtFloat(timeOf(cr.chain, i, cr.target)/timeOf(cr.chain, i-1, cr.target), 2)
			}
			row = append(row, fmtFloat(tSec, 2), ratio)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"per-step time growth at constant E_s equals 1/ψ: ψ < 1 means scalable systems solve bigger problems SLOWER",
		"a perfectly scalable combination (ψ = 1) would keep T constant along the ladder")
	return t, nil
}
