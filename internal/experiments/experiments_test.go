package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/workload"
)

// quickSuite builds the reduced suite shared by the tests (the full paper
// ladder runs in the benchmark harness instead).
func quickSuite(t *testing.T) *Suite {
	t.Helper()
	cfg := Quick()
	s, err := NewSuite(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	cfg := Default()
	if _, err := NewSuite(cfg, nil); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	bad := cfg
	bad.Sizes = nil
	if _, err := NewSuite(bad, nil); err == nil {
		t.Error("empty ladder accepted")
	}
	bad = cfg
	bad.GETarget = 1.5
	if _, err := NewSuite(bad, nil); err == nil {
		t.Error("bad target accepted")
	}
	bad = cfg
	bad.SweepPoints = 2
	if _, err := NewSuite(bad, nil); err == nil {
		t.Error("too few sweep points accepted")
	}
}

func TestTable1MarkedSpeeds(t *testing.T) {
	s := quickSuite(t)
	tbl, err := s.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	out := tbl.String()
	for _, frag := range []string{"Server", "SunBlade", "SunFireV210", "Marked speed"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table 1 missing %q:\n%s", frag, out)
		}
	}
	// Marked speed column present in CSV too.
	if !strings.Contains(tbl.CSV(), "Marked speed") {
		t.Error("CSV missing header")
	}
}

func TestGEChainShape(t *testing.T) {
	s := quickSuite(t)
	chain, err := s.GEChainMeasured(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.Points) != len(s.Cfg.Sizes) {
		t.Fatalf("points %d, want %d", len(chain.Points), len(s.Cfg.Sizes))
	}
	// Required N grows with system size (paper Table 3 shape).
	for i := 1; i < len(chain.Points); i++ {
		if chain.Points[i].N <= chain.Points[i-1].N {
			t.Errorf("required N not increasing: %+v", chain.Points)
		}
	}
	// ψ in (0,1) (paper Table 4 shape).
	for i, psi := range chain.Psis {
		if psi <= 0 || psi >= 1 {
			t.Errorf("ψ[%d] = %g out of (0,1)", i, psi)
		}
	}
	// Each curve's samples monotone and its read-off verified close to
	// target (Fig 1's grey-dot check for every config).
	for i, curve := range chain.Curves {
		if !curve.MonotoneOnSamples() {
			t.Errorf("curve %d not monotone", i)
		}
		eff, err := curve.VerifyAt(chain.Points[i].N, s.runnerFor(context.Background(), workload.MustGet("ge"), chain.Clusters[i]))
		if err != nil {
			t.Fatal(err)
		}
		if eff < s.Cfg.GETarget-0.05 || eff > s.Cfg.GETarget+0.05 {
			t.Errorf("config %d: verification E_s = %g, target %g", i, eff, s.Cfg.GETarget)
		}
	}
}

func TestMMChainShapeAndComparison(t *testing.T) {
	s := quickSuite(t)
	mm, err := s.MMChainMeasured(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ge, err := s.GEChainMeasured(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, psi := range mm.Psis {
		if psi <= 0 || psi > 1.000001 {
			t.Errorf("MM ψ[%d] = %g out of (0,1]", i, psi)
		}
		// §4.4.3 headline: MM more scalable than GE, step by step.
		if psi <= ge.Psis[i] {
			t.Errorf("step %d: MM ψ %g should exceed GE ψ %g", i, psi, ge.Psis[i])
		}
	}
}

func TestTables2Through5Render(t *testing.T) {
	s := quickSuite(t)
	for _, gen := range []struct {
		name string
		fn   func(context.Context) (*Table, error)
	}{
		{"table2", s.Table2},
		{"table3", s.Table3},
		{"table4", s.Table4},
		{"table5", s.Table5},
		{"compare", s.CompareGEMM},
		{"table7", s.Table7},
		{"homog", s.HomogeneousCheck},
		{"ablate-dist", s.AblateDistribution},
		{"ablate-contention", s.AblateContention},
		{"ablate-tiling", s.AblateTiling},
	} {
		tbl, err := gen.fn(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", gen.name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", gen.name)
		}
		if out := tbl.String(); len(out) == 0 || !strings.Contains(out, "\n") {
			t.Errorf("%s: bad render", gen.name)
		}
		if csv := tbl.CSV(); !strings.Contains(csv, ",") {
			t.Errorf("%s: bad CSV", gen.name)
		}
	}
}

func TestFiguresRender(t *testing.T) {
	s := quickSuite(t)
	fig1, tbl, err := s.Fig1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig1.Series) != 3 {
		t.Errorf("Fig1 series = %d, want 3 (measured, trend, verification)", len(fig1.Series))
	}
	if len(tbl.Rows) != 1 {
		t.Errorf("Fig1 verification rows = %d", len(tbl.Rows))
	}
	out := fig1.String()
	if !strings.Contains(out, "Fig 1") || !strings.Contains(out, "verification") {
		t.Errorf("Fig1 render:\n%s", out)
	}
	if !strings.Contains(fig1.CSV(), "series,N,speed-efficiency") {
		t.Errorf("Fig1 CSV header wrong:\n%s", fig1.CSV())
	}

	fig2, err := s.Fig2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One measured + one trend series per configuration.
	if len(fig2.Series) != 2*len(s.Cfg.Sizes) {
		t.Errorf("Fig2 series = %d, want %d", len(fig2.Series), 2*len(s.Cfg.Sizes))
	}
}

func TestTable6PredictionsCloseToMeasured(t *testing.T) {
	s := quickSuite(t)
	_, preds, err := s.Table6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	chain, err := s.GEChainMeasured(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(chain.Points) {
		t.Fatalf("prediction count %d vs %d", len(preds), len(chain.Points))
	}
	for i := range preds {
		rel := preds[i].N/float64(chain.Points[i].N) - 1
		if rel < 0 {
			rel = -rel
		}
		// The paper: "the predicted scalability is close to our measured
		// scalability". Allow 25% on N.
		if rel > 0.25 {
			t.Errorf("config %d: predicted N %.0f vs measured %d (rel %.2f)",
				i, preds[i].N, chain.Points[i].N, rel)
		}
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is slow")
	}
	s := quickSuite(t)
	ids := IDs()
	if len(ids) != len(All()) {
		t.Fatal("IDs/All mismatch")
	}
	for _, id := range ids {
		outcomes, err := RunSelected(context.Background(), s, []string{id}, runner.Options{Jobs: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(Flatten(outcomes)) == 0 {
			t.Errorf("%s: no output", id)
		}
	}
	if _, err := Resolve("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}
