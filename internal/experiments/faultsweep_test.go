package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestFaultSweepDegradesPsi(t *testing.T) {
	s := quickSuite(t)
	tbl, err := s.FaultSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(faultIntensities) {
		t.Fatalf("rows %d, want %d", len(tbl.Rows), len(faultIntensities))
	}
	psiCol := len(tbl.Headers) - 1
	psis := make([]float64, len(tbl.Rows))
	for i, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[psiCol], 64)
		if err != nil {
			t.Fatalf("row %d ψ %q: %v", i, row[psiCol], err)
		}
		psis[i] = v
	}
	if psis[0] != 1 {
		t.Errorf("fault-free row has ψ = %g, want 1", psis[0])
	}
	for i := 1; i < len(psis); i++ {
		if psis[i] >= psis[i-1] {
			t.Errorf("ψ not strictly decreasing with intensity: ψ[%d]=%g, ψ[%d]=%g",
				i-1, psis[i-1], i, psis[i])
		}
	}
	if last := psis[len(psis)-1]; last >= 1 || last <= 0 {
		t.Errorf("severe-fault ψ = %g, want in (0,1)", last)
	}
}

func TestCrashRestartPricesFailures(t *testing.T) {
	s := quickSuite(t)
	tbl, err := s.CrashRestart(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows %d, want 3", len(tbl.Rows))
	}
	slowCol := 5
	var early, late float64
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[slowCol], 64)
		if err != nil {
			t.Fatalf("slowdown %q: %v", row[slowCol], err)
		}
		if v <= 1 {
			t.Errorf("scenario %q slowdown %g, want > 1", row[0], v)
		}
		switch row[0] {
		case "rank 3 early":
			early = v
		case "rank 3 late":
			late = v
		}
		alive, total, found := strings.Cut(row[2], "/")
		a, errA := strconv.Atoi(alive)
		n, errN := strconv.Atoi(total)
		if !found || errA != nil || errN != nil || a >= n {
			t.Errorf("scenario %q survivors %q not a proper subset count", row[0], row[2])
		}
	}
	if late <= early {
		t.Errorf("late crash slowdown %g should exceed early crash slowdown %g", late, early)
	}
}

// Determinism regression: the whole fault study — and a fault-free
// experiment next to it — renders byte-identically across two fresh
// suites with the same Config.Seed. Every fault draw must come from the
// seed, never from wall clock, map order or scheduling.
func TestFaultExperimentsDeterministic(t *testing.T) {
	render := func() map[string]string {
		s := quickSuite(t)
		out := map[string]string{}
		for _, id := range []string{"fault-sweep", "crash-restart", "table2"} {
			outcomes, err := RunSelected(context.Background(), s, []string{id}, runner.Options{Jobs: 1})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			rs := Flatten(outcomes)
			var b strings.Builder
			for _, r := range rs {
				b.WriteString(r.String())
				b.WriteString(r.CSV())
			}
			out[id] = b.String()
		}
		return out
	}
	first := render()
	second := render()
	for id, want := range first {
		if second[id] != want {
			t.Errorf("experiment %s is not deterministic across suites with the same seed:\n--- first ---\n%s\n--- second ---\n%s",
				id, want, second[id])
		}
	}
}
