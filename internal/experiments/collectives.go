package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// AblateCollectives quantifies how much of GE's poor scalability is the
// runtime's broadcast algorithm: the same elimination with (a) the
// paper's measured aggregate broadcast (linear MPICH, 0.23·p ms), (b) an
// explicit flat broadcast built from point-to-point messages, and (c) a
// binomial tree. The tree turns the dominant N·O(p) overhead term into
// N·O(log p), which the isospeed-efficiency numbers immediately reflect
// — a 2005-runtime artifact the metric makes visible.
func (s *Suite) AblateCollectives(ctx context.Context) (*Table, error) {
	const n = 600
	t := &Table{
		Title:   fmt.Sprintf("Ablation: pivot broadcast algorithm (GE, N = %d)", n),
		Headers: []string{"Config", "p", "Bcast", "T (ms)", "E_s"},
	}
	impls := []struct {
		name string
		impl workload.PivotBcast
	}{
		{"measured model (0.23·p)", workload.PivotBcastModel},
		{"flat p2p (owner sends p-1)", workload.PivotBcastLinear},
		{"binomial tree (log2 p rounds)", workload.PivotBcastTree},
	}
	for _, p := range s.Cfg.Sizes {
		cl, err := cluster.GEConfig(p)
		if err != nil {
			return nil, err
		}
		for _, im := range impls {
			out, err := workload.GE{Pivot: im.impl}.Run(ctx, cl, s.Cfg.Model, s.Cfg.mpiOpts(),
				workload.Spec{N: n, Seed: s.Cfg.Seed, Symbolic: true})
			if err != nil {
				return nil, err
			}
			eff, err := core.SpeedEfficiency(out.Work, out.Stats.TimeMS, cl.MarkedSpeed())
			if err != nil {
				return nil, err
			}
			t.AddRow(cl.Name, fmt.Sprintf("%d", cl.Size()), im.name,
				fmtFloat(out.Stats.TimeMS, 1), fmtFloat(eff, 4))
		}
	}
	t.Notes = append(t.Notes,
		"the measured aggregate and the explicit flat algorithm agree in shape (both O(p) per iteration); the tree collapses the p-dependence to log p",
		"same marked speeds, same workload: only the runtime's collective changed")
	return t, nil
}

// AblateOverlap quantifies communication/computation overlap: the Jacobi
// relaxation with bulk-synchronous halo exchange vs non-blocking sends
// that hide the transfers behind the ghost-independent interior update.
func (s *Suite) AblateOverlap(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:   "Ablation: communication/computation overlap (Jacobi halo exchange)",
		Headers: []string{"Cluster", "N", "Variant", "T (ms)", "E_s", "Speedup"},
	}
	for _, p := range s.Cfg.Sizes {
		cl, err := cluster.MMConfig(p)
		if err != nil {
			return nil, err
		}
		n := 120 * p // keep per-rank work roughly constant along the ladder
		var base float64
		for _, overlap := range []bool{false, true} {
			out, err := workload.Jacobi{Overlap: overlap}.Run(ctx, cl, s.Cfg.Model, s.Cfg.mpiOpts(),
				workload.Spec{N: n, Seed: s.Cfg.Seed, Symbolic: true})
			if err != nil {
				return nil, err
			}
			if !overlap {
				base = out.Stats.TimeMS
			}
			eff, err := core.SpeedEfficiency(out.Work, out.Stats.TimeMS, cl.MarkedSpeed())
			if err != nil {
				return nil, err
			}
			variant := "bulk-synchronous"
			if overlap {
				variant = "overlapped (ISend)"
			}
			t.AddRow(cl.Name, fmt.Sprintf("%d", n), variant,
				fmtFloat(out.Stats.TimeMS, 1), fmtFloat(eff, 4),
				fmtFloat(base/out.Stats.TimeMS, 3))
		}
	}
	t.Notes = append(t.Notes,
		"the interior update needs no ghosts, so the halo transfer rides for free underneath it",
		"numerical results are bit-identical between the variants (asserted by tests)")
	return t, nil
}
