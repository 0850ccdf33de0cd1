package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/workload"
)

func TestThreeWayOrdering(t *testing.T) {
	s := quickSuite(t)
	ge, err := s.GEChainMeasured(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	jac, err := s.JacChainMeasured(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := s.MMChainMeasured(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// All chains well-formed.
	for _, chain := range []*chainResult{ge, mm, jac} {
		for i, psi := range chain.Psis {
			if psi <= 0 || psi >= 1 {
				t.Errorf("ψ[%d] = %g out of (0,1)", i, psi)
			}
		}
	}
	// Asymptotic ordering: at the last ladder step the halo pattern must
	// beat both the replication and the broadcast patterns (the first
	// step can invert because a 2-node Jacobi has only one neighbour
	// exchange and gains a second when the system grows).
	last := len(ge.Psis) - 1
	if jac.Psis[last] <= mm.Psis[last] {
		t.Errorf("last step: Jacobi ψ %g should exceed MM ψ %g", jac.Psis[last], mm.Psis[last])
	}
	if jac.Psis[last] <= ge.Psis[last] {
		t.Errorf("last step: Jacobi ψ %g should exceed GE ψ %g", jac.Psis[last], ge.Psis[last])
	}
	// Rendering.
	tbl, err := s.ThreeWay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(ge.Psis) {
		t.Errorf("rows %d, want %d", len(tbl.Rows), len(ge.Psis))
	}
}

func TestMemBoundBitesEventually(t *testing.T) {
	s := quickSuite(t)
	tbl, err := s.MemBound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The registry is the row source: one ladder per registered workload.
	type verdicts struct {
		bounded, unbounded bool
	}
	seen := map[string]*verdicts{}
	prevReq := map[string]float64{}
	for _, row := range tbl.Rows {
		name := row[0]
		if seen[name] == nil {
			seen[name] = &verdicts{}
		}
		target, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad target %q", row[2])
		}
		req, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad required N %q", row[3])
		}
		if req <= prevReq[name] {
			t.Errorf("%s: required N not increasing along the ladder: %v", name, tbl.Rows)
		}
		prevReq[name] = req
		switch row[5] {
		case "YES":
			seen[name].bounded = true
			eff, err := strconv.ParseFloat(row[6], 64)
			if err != nil {
				t.Fatalf("bad eff %q", row[6])
			}
			if eff >= target {
				t.Errorf("%s: bounded rung achieves %g >= target %g", name, eff, target)
			}
		case "no":
			seen[name].unbounded = true
		default:
			t.Errorf("bad bounded cell %q", row[5])
		}
	}
	for _, w := range workload.All() {
		v := seen[w.Name()]
		if v == nil {
			t.Errorf("workload %q missing from the membound table", w.Name())
			continue
		}
		if !v.unbounded {
			t.Errorf("%s: even the smallest rung is memory-bounded", w.Name())
		}
	}
	// GE's per-iteration broadcast makes its required N grow fastest, so
	// its ladder must cross the memory bound inside the extended sizes;
	// lighter combinations (halo patterns) may stay unbounded throughout,
	// which is the point of reporting them side by side.
	if !seen["ge"].bounded {
		t.Errorf("ge ladder never crosses the memory bound: %v", tbl.Rows)
	}
}

func TestTraceDecomposition(t *testing.T) {
	s := quickSuite(t)
	tbl, err := s.TraceDecomposition(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The registry is the row source: every registered workload — not just
	// the historical GE/Jacobi pair — contributes one row per rank of its
	// 4-node rung plus a To* row.
	want := 0
	for _, w := range workload.All() {
		cl, err := w.ClusterLadder(4)
		if err != nil {
			t.Fatal(err)
		}
		want += cl.Size() + 1
	}
	if len(tbl.Rows) != want {
		t.Fatalf("rows = %d, want %d:\n%s", len(tbl.Rows), want, tbl)
	}
	// Per-workload To* rows: parseable, nonnegative, below the makespan.
	toFrac := map[string]float64{}
	for _, row := range tbl.Rows {
		if row[1] != "To*" {
			continue
		}
		to, err1 := strconv.ParseFloat(row[2], 64)
		total, err2 := strconv.ParseFloat(row[6], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad To* row %v", row)
		}
		if to < 0 || to > total {
			t.Errorf("%s: To* %g outside [0, makespan %g]", row[0], to, total)
		}
		toFrac[row[0]] = to / total
	}
	for _, w := range workload.All() {
		if _, ok := toFrac[w.Name()]; !ok {
			t.Errorf("workload %q missing a To* row", w.Name())
		}
	}
	// GE's critical overhead must exceed Jacobi's relative to their
	// makespans: per-iteration broadcast vs nearest-neighbour halo.
	if toFrac["ge"] <= toFrac["jacobi"] {
		t.Errorf("ge overhead fraction %.3f should exceed jacobi's %.3f",
			toFrac["ge"], toFrac["jacobi"])
	}
}

func TestAblateNetworksShape(t *testing.T) {
	s := quickSuite(t)
	tbl, err := s.AblateNetworks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tbl.Rows))
	}
	times := map[string]map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if times[row[0]] == nil {
			times[row[0]] = map[string]float64{}
		}
		times[row[0]][row[1]] = v
	}
	for alg, m := range times {
		if !(m["ideal"] <= m["switched"] && m["switched"] <= m["shared"]) {
			t.Errorf("%s: ordering violated: %v", alg, m)
		}
	}
	// The switch must strictly help Jacobi's disjoint halo traffic.
	if !(times["Jacobi"]["switched"] < times["Jacobi"]["shared"]) {
		t.Errorf("switch should beat bus for Jacobi: %v", times["Jacobi"])
	}
}

func TestGridSeparatesCombinations(t *testing.T) {
	s := quickSuite(t)
	tbl, err := s.Grid(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tbl.Rows))
	}
	slow := map[string]float64{}
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[2], "WAN") {
			v, err := strconv.ParseFloat(row[5], 64)
			if err != nil {
				t.Fatal(err)
			}
			slow[row[0]] = v
		}
	}
	// Every combination degrades over the WAN, and the ordering reflects
	// communication structure: per-iteration broadcast (GE) worst,
	// per-sweep latency (Jacobi) in between, one-shot bulk (MM) best.
	for alg, v := range slow {
		if v <= 1.5 {
			t.Errorf("%s WAN slowdown %g suspiciously small", alg, v)
		}
	}
	if !(slow["GE"] > slow["Jacobi"] && slow["Jacobi"] > slow["MM"]) {
		t.Errorf("slowdown ordering wrong: %v", slow)
	}
}

func TestNewExperimentsRegistered(t *testing.T) {
	for _, id := range []string{"threeway", "membound", "tracedecomp", "ablate-network", "grid", "asymscale"} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestThreeWayRenderContainsAlgorithms(t *testing.T) {
	s := quickSuite(t)
	tbl, err := s.ThreeWay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, frag := range []string{"GE", "MM", "Jacobi"} {
		if !strings.Contains(out, frag) {
			t.Errorf("three-way table missing %q", frag)
		}
	}
}

func TestReadOffRobustUnderJitter(t *testing.T) {
	// The paper's procedure fits a trend to noisy measurements; with 10%
	// multiplicative timing noise the read-off must stay close to the
	// noise-free one (the fit averages the noise out).
	s := quickSuite(t)
	cl, err := cluster.GEConfig(4)
	if err != nil {
		t.Fatal(err)
	}
	runner := func(jitter float64, seed int64) core.Runner {
		return func(n int) (float64, float64, error) {
			out, err := workload.GE{}.Run(context.Background(), cl, s.Cfg.Model, mpi.Options{
				Jitter: jitter, JitterSeed: seed,
			}, workload.Spec{N: n, Symbolic: true})
			if err != nil {
				return 0, 0, err
			}
			return out.Work, out.Stats.TimeMS, nil
		}
	}
	m, err := s.machineFor(workload.MustGet("ge"), cl)
	if err != nil {
		t.Fatal(err)
	}
	guess, err := m.RequiredN(s.Cfg.GETarget, 8, 5e6)
	if err != nil {
		t.Fatal(err)
	}
	_, clean, err := s.readOff(cl.Name, cl.MarkedSpeed(), s.Cfg.GETarget, guess, runner(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		_, noisy, err := s.readOff(cl.Name, cl.MarkedSpeed(), s.Cfg.GETarget, guess, runner(0.10, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rel := math.Abs(noisy-clean) / clean
		if rel > 0.12 {
			t.Errorf("seed %d: jittered read-off %g vs clean %g (rel %.3f)", seed, noisy, clean, rel)
		}
	}
}
