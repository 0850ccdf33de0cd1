package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nasbench"
	"repro/internal/workload"
)

// Table1 reproduces "Marked speed of Sunwulf nodes (Mflops)": the NPB-style
// suite is run (on the node models) for each node class and averaged.
func (s *Suite) Table1(ctx context.Context) (*Table, error) {
	_ = ctx // analytic: node-model calibration only
	nodes := []cluster.Node{
		cluster.ServerNode(0),
		cluster.V210Node(65, 0),
		cluster.BladeNode(40),
	}
	t := &Table{
		Title:   "Table 1: Marked speed of Sunwulf nodes (Mflops)",
		Headers: []string{"Node class", "EP", "MG", "FT", "LU", "BT", "Marked speed"},
		Notes: []string{
			"synthetic calibration preserving the paper's hardware ratios (see DESIGN.md §2)",
			"marked speed = mean of the per-kernel sustained rates (Definition 1)",
		},
	}
	for _, n := range nodes {
		ms, scores, err := nasbench.MeasureNodeModel(n)
		if err != nil {
			return nil, err
		}
		byName := map[string]float64{}
		for _, sc := range scores {
			byName[sc.Kernel] = sc.Mflops
		}
		t.AddRow(
			fmt.Sprintf("%s (1 CPU)", n.Class),
			fmtFloat(byName["EP"], 1),
			fmtFloat(byName["MG"], 1),
			fmtFloat(byName["FT"], 1),
			fmtFloat(byName["LU"], 1),
			fmtFloat(byName["BT"], 1),
			fmtFloat(ms, 1),
		)
	}
	return t, nil
}

// Table2 reproduces "Experimental results on two nodes": GE on the C2
// configuration at increasing matrix sizes, reporting workload, execution
// time, achieved speed and speed-efficiency (paper Table 2).
func (s *Suite) Table2(ctx context.Context) (*Table, error) {
	chain, err := s.GEChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	curve := chain.Curves[0]
	cl := chain.Clusters[0]
	t := &Table{
		Title: fmt.Sprintf("Table 2: GE experimental results on two nodes (%s)", cl),
		Headers: []string{
			"Rank N", "Workload W (flops)", "Execution time T (ms)",
			"Achieved speed (Mflops)", "Speed-efficiency",
		},
	}
	for _, p := range curve.Points {
		sp, err := core.AchievedSpeed(p.Work, p.TimeMS)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", p.N),
			fmtSci(p.Work),
			fmtFloat(p.TimeMS, 2),
			fmtFloat(sp, 2),
			fmtFloat(p.Eff, 4),
		)
	}
	return t, nil
}

// Table3 reproduces "Required rank to obtain 0.3 speed-efficiency":
// for every GE configuration, the matrix size read off the fitted trend
// line, the corresponding workload, and the configuration's marked speed.
func (s *Suite) Table3(ctx context.Context) (*Table, error) {
	chain, err := s.GEChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Table 3: Required rank to obtain %.1f speed-efficiency (GE)", s.Cfg.GETarget),
		Headers: []string{
			"System configuration", "Rank N", "Workload W (flops)", "Marked speed (Mflops)", "Trend R²",
		},
	}
	for i, pt := range chain.Points {
		t.AddRow(
			chain.Clusters[i].String(),
			fmt.Sprintf("%d", pt.N),
			fmtSci(pt.W),
			fmtFloat(pt.C, 1),
			fmtFloat(chain.Curves[i].Fit.RSquared, 4),
		)
	}
	return t, nil
}

// Table4 reproduces "Measured scalability of GE on Sunwulf": the ψ chain
// over consecutive configurations.
func (s *Suite) Table4(ctx context.Context) (*Table, error) {
	chain, err := s.GEChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	return psiChainTable("Table 4: Measured scalability of GE on Sunwulf", chain), nil
}

// Table5 reproduces "Scalability of MM on Sunwulf" at the MM target.
func (s *Suite) Table5(ctx context.Context) (*Table, error) {
	chain, err := s.MMChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	return psiChainTable(
		fmt.Sprintf("Table 5: Measured scalability of MM on Sunwulf (E_s = %.1f)", s.Cfg.MMTarget),
		chain), nil
}

func psiChainTable(title string, chain *chainResult) *Table {
	t := &Table{Title: title}
	for i, psi := range chain.Psis {
		t.Headers = append(t.Headers, fmt.Sprintf("ψ(%s,%s)", chain.Points[i].Label, chain.Points[i+1].Label))
		_ = psi
	}
	row := make([]string, len(chain.Psis))
	for i, psi := range chain.Psis {
		row[i] = fmtFloat(psi, 4)
	}
	t.AddRow(row...)
	return t
}

// CompareGEMM reproduces §4.4.3: the two algorithm–system combinations'
// ψ chains side by side, showing MM–Sunwulf is the more scalable
// combination.
func (s *Suite) CompareGEMM(ctx context.Context) (*Table, error) {
	ge, err := s.GEChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	mm, err := s.MMChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	if len(ge.Psis) != len(mm.Psis) {
		return nil, fmt.Errorf("experiments: chain lengths differ: %d vs %d", len(ge.Psis), len(mm.Psis))
	}
	t := &Table{
		Title:   "Comparison (§4.4.3): scalability of the two algorithm-system combinations",
		Headers: []string{"Step", "ψ GE-Sunwulf", "ψ MM-Sunwulf", "More scalable"},
	}
	for i := range ge.Psis {
		winner := "MM"
		if ge.Psis[i] > mm.Psis[i] {
			winner = "GE"
		}
		t.AddRow(
			fmt.Sprintf("%s -> %s", ge.Points[i].Label, ge.Points[i+1].Label),
			fmtFloat(ge.Psis[i], 4),
			fmtFloat(mm.Psis[i], 4),
			winner,
		)
	}
	t.Notes = append(t.Notes,
		"the paper finds the MM-Sunwulf combination more scalable: GE has a sequential portion and more communication")
	return t, nil
}

// Table6 reproduces "Predicted required rank": the analytic machine model
// (calibrated communication constants + workload polynomial) solves the
// isospeed-efficiency condition for each GE configuration without running
// it.
func (s *Suite) Table6(ctx context.Context) (*Table, []core.Prediction, error) {
	_ = ctx // analytic: prediction only, no measured runs
	machines, err := s.geMachines()
	if err != nil {
		return nil, nil, err
	}
	preds, _, _, err := core.PredictChain(machines, s.Cfg.GETarget, 8, 5e6)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Table 6: Predicted required rank for E_s = %.1f (GE)", s.Cfg.GETarget),
		Headers: []string{"Nodes", "N (prediction)", "Overhead To (ms)", "Seq t0 (ms)"},
	}
	for _, p := range preds {
		t.AddRow(p.Label, fmt.Sprintf("%.0f", p.N), fmtFloat(p.To, 2), fmtFloat(p.T0, 2))
	}
	return t, preds, nil
}

// Table7 reproduces "Predicted scalability of GE on Sunwulf" and sets it
// against the measured chain (the paper: "the predicted scalability is
// close to our measured scalability").
func (s *Suite) Table7(ctx context.Context) (*Table, error) {
	machines, err := s.geMachines()
	if err != nil {
		return nil, err
	}
	_, _, psiThm, err := core.PredictChain(machines, s.Cfg.GETarget, 8, 5e6)
	if err != nil {
		return nil, err
	}
	chain, err := s.GEChainMeasured(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 7: Predicted vs measured scalability of GE on Sunwulf",
		Headers: []string{"Step", "ψ predicted (Thm 1)", "ψ measured", "|rel diff|"},
	}
	for i := range psiThm {
		rel := math.Abs(psiThm[i]-chain.Psis[i]) / chain.Psis[i]
		t.AddRow(
			fmt.Sprintf("%s -> %s", chain.Points[i].Label, chain.Points[i+1].Label),
			fmtFloat(psiThm[i], 4),
			fmtFloat(chain.Psis[i], 4),
			fmtFloat(rel, 3),
		)
	}
	return t, nil
}

func (s *Suite) geMachines() ([]core.AnalyticMachine, error) {
	var machines []core.AnalyticMachine
	for _, p := range s.Cfg.Sizes {
		cl, err := cluster.GEConfig(p)
		if err != nil {
			return nil, err
		}
		m, err := s.machineFor(workload.MustGet("ge"), cl)
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	return machines, nil
}

// HomogeneousCheck is an extra validation experiment (not a paper table):
// on a homogeneous cluster the isospeed-efficiency ψ must coincide with
// the classical isospeed ψ(p, p').
func (s *Suite) HomogeneousCheck(ctx context.Context) (*Table, error) {
	sizes := []int{2, 4, 8}
	var points []core.ScalePoint
	var ps []int
	for _, p := range sizes {
		cl, err := cluster.Uniform(fmt.Sprintf("U%d", p), p, cluster.SunBladeMflops)
		if err != nil {
			return nil, err
		}
		m, err := s.machineFor(workload.MustGet("ge"), cl)
		if err != nil {
			return nil, err
		}
		guess, err := m.RequiredN(s.Cfg.GETarget, 8, 5e6)
		if err != nil {
			return nil, err
		}
		curve, nReq, err := s.readOff(cl.Name, cl.MarkedSpeed(), s.Cfg.GETarget, guess, s.runnerFor(ctx, workload.MustGet("ge"), cl))
		if err != nil {
			return nil, err
		}
		_ = curve
		nInt := int(math.Round(nReq))
		points = append(points, core.ScalePoint{Label: cl.Name, C: cl.MarkedSpeed(), N: nInt, W: workload.MustGet("ge").WorkAt(nInt)})
		ps = append(ps, p)
	}
	psiGen, err := core.PsiChain(points)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Validation: homogeneous special case (isospeed-efficiency vs isospeed)",
		Headers: []string{"Step", "ψ(C,C')", "ψ(p,p')", "|diff|"},
	}
	for i := 1; i < len(points); i++ {
		psiIso, err := core.IsospeedPsi(ps[i-1], points[i-1].W, ps[i], points[i].W)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%s -> %s", points[i-1].Label, points[i].Label),
			fmtFloat(psiGen[i-1], 4),
			fmtFloat(psiIso, 4),
			fmtSci(math.Abs(psiGen[i-1]-psiIso)),
		)
	}
	t.Notes = append(t.Notes, "the metrics must agree exactly: C = p·C_node cancels from ψ")
	return t, nil
}
