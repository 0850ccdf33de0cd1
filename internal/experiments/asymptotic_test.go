package experiments

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/workload"
)

func TestAsymptoticScaleShape(t *testing.T) {
	s := quickSuite(t)
	tbl, err := s.AsymptoticScale(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := len(workload.All()) * len(s.Cfg.AsymSizes)
	if len(tbl.Rows) != want {
		t.Fatalf("rows = %d, want %d:\n%s", len(tbl.Rows), want, tbl)
	}
	rungs := len(s.Cfg.AsymSizes)
	for i, row := range tbl.Rows {
		first := i%rungs == 0
		n, err := strconv.ParseFloat(row[3], 64)
		if err != nil || n <= 0 {
			t.Fatalf("row %d: bad required N %q", i, row[3])
		}
		if !first {
			prev, _ := strconv.ParseFloat(tbl.Rows[i-1][3], 64)
			if n <= prev {
				t.Errorf("%s: required N %g not increasing over rung %s", row[0], n, row[2])
			}
		}
		for _, col := range []int{5, 6, 7} {
			if first {
				if row[col] != "-" {
					t.Errorf("row %d: first rung should have no ψ, got %q", i, row[col])
				}
				continue
			}
			psi, err := strconv.ParseFloat(row[col], 64)
			if err != nil || psi <= 0 || psi > 1 {
				t.Errorf("row %d col %d: ψ = %q outside (0, 1]", i, col, row[col])
			}
		}
	}
}

func TestAsymptoticScaleReachesMillionRanksQuickly(t *testing.T) {
	// The acceptance bound of the closed-form mode: the full default
	// ladder — every workload priced out to p = 10^6 — must complete in
	// seconds, since no rung executes a program. The test budget is the
	// go test default timeout; the per-rung wall-clock claim is timed by
	// BenchmarkAsymptoticMillionRankRung in internal/workload.
	if testing.Short() {
		t.Skip("builds 10^6-node clusters")
	}
	cfg := Default()
	s, err := NewSuite(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.AsymptoticScale(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range tbl.Rows {
		if row[2] == "1000000" {
			found = true
		}
	}
	if !found {
		t.Errorf("no p = 10^6 rung in:\n%s", tbl)
	}
}
