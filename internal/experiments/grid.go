package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Grid reproduces the paper's "widely distributed" claim (§5: the metric
// is "appropriate for a general scalable computing environment,
// homogeneous or heterogeneous, tightly coupled or widely distributed"):
// the same 8 nodes are evaluated as one LAN cluster and as two 4-node
// sites linked by a WAN, for all three algorithm-system combinations.
// The metric needs nothing new — only the cost model changes — and it
// cleanly separates the combinations: per-iteration broadcasts (GE) die
// over the WAN; the iterative halo pattern (Jacobi) crosses the WAN on
// only one pair yet pays its ~30 ms latency every sweep; MM's one-shot
// bulk transfers amortize the latency and degrade least.
func (s *Suite) Grid(ctx context.Context) (*Table, error) {
	cl, err := cluster.MMConfig(8)
	if err != nil {
		return nil, err
	}
	local, err := simnet.NewParamModel("lan", simnet.Sunwulf100())
	if err != nil {
		return nil, err
	}
	remote, err := simnet.NewParamModel("wan", simnet.WAN())
	if err != nil {
		return nil, err
	}
	// Two sites of 4 ranks each. The Jacobi band order means exactly one
	// halo pair (ranks 3-4) crosses the WAN.
	twoSite, err := simnet.NewTwoLevel("grid-2x4", local, remote, []int{0, 0, 0, 0, 1, 1, 1, 1})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Widely distributed: one 8-node LAN vs two 4-node sites over a WAN",
		Headers: []string{
			"Algorithm", "N", "Network", "T (ms)", "E_s", "Slowdown",
		},
	}

	for _, v := range []struct {
		name string
		n    int
		w    workload.Workload
	}{
		{"GE", 600, workload.GE{}},
		{"MM", 400, workload.MM{}},
		{"Jacobi", 400, workload.Jacobi{}},
	} {
		spec := workload.Spec{N: v.n, Seed: s.Cfg.Seed, Symbolic: true}
		var lanT float64
		for _, net := range []struct {
			label string
			model simnet.CostModel
		}{
			{"LAN (1 site)", local},
			{"WAN (2 sites)", twoSite},
		} {
			out, err := v.w.Run(ctx, cl, net.model, s.Cfg.mpiOpts(), spec)
			if err != nil {
				return nil, fmt.Errorf("experiments: grid %s/%s: %w", v.name, net.label, err)
			}
			timeMS := out.Stats.TimeMS
			if net.label[0] == 'L' {
				lanT = timeMS
			}
			eff, err := core.SpeedEfficiency(out.Work, timeMS, cl.MarkedSpeed())
			if err != nil {
				return nil, err
			}
			t.AddRow(v.name, fmt.Sprintf("%d", v.n), net.label,
				fmtFloat(timeMS, 1), fmtFloat(eff, 4), fmtFloat(timeMS/lanT, 2))
		}
	}
	t.Notes = append(t.Notes,
		"same nodes, same marked speed C: only the cost model changes — E_s absorbs the WAN without redefining the metric",
		"GE broadcasts every pivot row across the WAN (worst); Jacobi pays WAN latency once per sweep on one halo pair; MM's bulk one-shot transfers amortize it best")
	return t, nil
}
