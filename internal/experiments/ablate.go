package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// AblateDistribution quantifies why marked-speed-aware distribution
// matters: GE and MM on one heterogeneous configuration under the
// heterogeneous strategy vs the speed-blind baseline, at a fixed problem
// size.
func (s *Suite) AblateDistribution(ctx context.Context) (*Table, error) {
	// GE needs a larger N than MM before compute (and hence load balance)
	// dominates its per-iteration collectives.
	const (
		nGE = 1600
		nMM = 400
	)
	t := &Table{
		Title:   fmt.Sprintf("Ablation: distribution strategy (GE N = %d, MM N = %d)", nGE, nMM),
		Headers: []string{"Algorithm", "Cluster", "Strategy", "T (ms)", "E_s", "Slowdown vs het"},
	}

	// Use the mixed SunBlade/V210 configuration for both algorithms: the
	// GE ladder's own configs (2 servers + blades) are nearly homogeneous,
	// which would understate what distribution strategy is worth.
	geCl, err := cluster.MMConfig(8)
	if err != nil {
		return nil, err
	}
	geStrats := []dist.Strategy{dist.HetCyclic{}, dist.HomCyclic{}, dist.HomBlock{}}
	var geBase float64
	for i, st := range geStrats {
		out, err := workload.GE{Strategy: st}.Run(ctx, geCl, s.model, s.Cfg.mpiOpts(),
			workload.Spec{N: nGE, Seed: s.Cfg.Seed, Symbolic: true})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			geBase = out.Stats.TimeMS
		}
		eff, err := core.SpeedEfficiency(out.Work, out.Stats.TimeMS, geCl.MarkedSpeed())
		if err != nil {
			return nil, err
		}
		t.AddRow("GE", geCl.Name, st.Name(),
			fmtFloat(out.Stats.TimeMS, 2), fmtFloat(eff, 4),
			fmtFloat(out.Stats.TimeMS/geBase, 3))
	}

	mmCl, err := cluster.MMConfig(8)
	if err != nil {
		return nil, err
	}
	mmStrats := []dist.Strategy{dist.HetBlock{}, dist.HomBlock{}}
	var mmBase float64
	for i, st := range mmStrats {
		out, err := workload.MM{Strategy: st}.Run(ctx, mmCl, s.model, s.Cfg.mpiOpts(),
			workload.Spec{N: nMM, Seed: s.Cfg.Seed, Symbolic: true})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			mmBase = out.Stats.TimeMS
		}
		eff, err := core.SpeedEfficiency(out.Work, out.Stats.TimeMS, mmCl.MarkedSpeed())
		if err != nil {
			return nil, err
		}
		t.AddRow("MM", mmCl.Name, st.Name(),
			fmtFloat(out.Stats.TimeMS, 2), fmtFloat(eff, 4),
			fmtFloat(out.Stats.TimeMS/mmBase, 3))
	}
	t.Notes = append(t.Notes,
		"speed-blind distribution leaves fast V210 nodes idle waiting for SunBlades; E_s drops accordingly")
	return t, nil
}

// AblateContention compares the analytic (contention-free) network with
// the DES shared-Ethernet medium, isolating what a single collision domain
// does to the efficiency curves.
func (s *Suite) AblateContention(ctx context.Context) (*Table, error) {
	const n = 300
	t := &Table{
		Title:   fmt.Sprintf("Ablation: shared-medium contention (DES engine, N = %d)", n),
		Headers: []string{"Algorithm", "Cluster", "Network", "T (ms)", "E_s"},
	}
	mmCl, err := cluster.MMConfig(8)
	if err != nil {
		return nil, err
	}
	geCl, err := cluster.GEConfig(8)
	if err != nil {
		return nil, err
	}
	spec := workload.Spec{N: n, Seed: s.Cfg.Seed, Symbolic: true}
	for _, r := range []struct {
		alg string
		w   workload.Workload
		cl  *cluster.Cluster
	}{
		{"GE", workload.GE{}, geCl},
		{"MM", workload.MM{}, mmCl},
	} {
		for _, wire := range []simnet.WireMode{simnet.WireIdeal, simnet.WireShared} {
			out, err := r.w.Run(ctx, r.cl, s.model, mpi.Options{Engine: mpi.EngineDES, Network: wire}, spec)
			if err != nil {
				return nil, err
			}
			timeMS := out.Stats.TimeMS
			eff, err := core.SpeedEfficiency(out.Work, timeMS, r.cl.MarkedSpeed())
			if err != nil {
				return nil, err
			}
			net := "ideal (no contention)"
			if wire == simnet.WireShared {
				net = "shared Ethernet (1 frame at a time)"
			}
			t.AddRow(r.alg, r.cl.Name, net, fmtFloat(timeMS, 2), fmtFloat(eff, 4))
		}
	}
	t.Notes = append(t.Notes,
		"point-to-point transfers queue on the shared wire; collectives use the measured aggregate model either way")
	return t, nil
}

// AblateTiling compares the HoHe row-band MM distribution with the
// Beaumont-style 2D column tiling communication proxy (half-perimeter),
// the optimization the paper cites as NP-complete with a good heuristic.
func (s *Suite) AblateTiling(ctx context.Context) (*Table, error) {
	_ = ctx // analytic: no measured runs
	t := &Table{
		Title:   "Ablation: 1D row bands vs Beaumont column tiling (communication volume proxy)",
		Headers: []string{"Cluster", "p", "Σ(w+h) row-band", "Σ(w+h) column tiling", "Tiling gain"},
	}
	for _, p := range s.Cfg.Sizes {
		cl, err := cluster.MMConfig(p)
		if err != nil {
			return nil, err
		}
		speeds := cl.Speeds()
		// Row bands: each rank's tile is full width (w=1) with height equal
		// to its speed share: Σ(w+h) = p + 1.
		rowBand := float64(len(speeds)) + 1
		tl, err := dist.ColumnTiling(speeds)
		if err != nil {
			return nil, err
		}
		if err := tl.Validate(speeds); err != nil {
			return nil, err
		}
		t.AddRow(cl.Name, fmt.Sprintf("%d", len(speeds)),
			fmtFloat(rowBand, 3), fmtFloat(tl.HalfPerimeter, 3),
			fmtFloat(rowBand/tl.HalfPerimeter, 3))
	}
	t.Notes = append(t.Notes,
		"half-perimeter sums are proportional to MM communication volume; the 2D heuristic wins as p grows")
	return t, nil
}
