package workload

import (
	"math"
	"testing"

	"repro/internal/mpi"
)

// The analytic models must track the measured virtual times: the total
// time decomposes as T = W/(δC) + t0 + To, so To ≈ T - W/(δC) - t0. The
// models share the paper's simplifications, so we allow generous (but
// bounded) disagreement.

func TestGEOverheadTracksMeasurement(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	toFn, err := geOverhead(cl, m)
	if err != nil {
		t.Fatal(err)
	}
	t0Fn, err := geSeqTime(cl)
	if err != nil {
		t.Fatal(err)
	}
	c := cl.MarkedSpeed()
	for _, n := range []int{100, 300, 600} {
		out, _ := runGE(t, GE{}, cl, m, mpi.Options{}, Spec{N: n, Symbolic: true})
		nf := float64(n)
		predicted := out.Work/(DefaultGESustained*c*1e3) + t0Fn(nf) + toFn(nf)
		rel := math.Abs(predicted-out.Stats.TimeMS) / out.Stats.TimeMS
		if rel > 0.15 {
			t.Errorf("n=%d: predicted %g ms vs measured %g ms (rel %.3f)",
				n, predicted, out.Stats.TimeMS, rel)
		}
	}
}

func TestMMOverheadTracksMeasurement(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	toFn, err := mmOverhead(cl, m)
	if err != nil {
		t.Fatal(err)
	}
	c := cl.MarkedSpeed()
	for _, n := range []int{100, 250, 500} {
		out, _ := runMM(t, MM{}, cl, m, mpi.Options{}, Spec{N: n, Symbolic: true})
		predicted := out.Work/(DefaultMMSustained*c*1e3) + toFn(float64(n))
		rel := math.Abs(predicted-out.Stats.TimeMS) / out.Stats.TimeMS
		if rel > 0.15 {
			t.Errorf("n=%d: predicted %g ms vs measured %g ms (rel %.3f)",
				n, predicted, out.Stats.TimeMS, rel)
		}
	}
}

func TestOverheadGrowsWithClusterSize(t *testing.T) {
	m := testModel(t)
	prevGE, prevMM := -1.0, -1.0
	for _, p := range []int{2, 4, 8, 16} {
		geCl, err := clusterGE(p)
		if err != nil {
			t.Fatal(err)
		}
		toGE, err := geOverhead(geCl, m)
		if err != nil {
			t.Fatal(err)
		}
		if v := toGE(500); v <= prevGE {
			t.Errorf("GE overhead at p=%d not increasing: %g", p, v)
		} else {
			prevGE = v
		}
		mmCl, err := clusterMM(p)
		if err != nil {
			t.Fatal(err)
		}
		toMM, err := mmOverhead(mmCl, m)
		if err != nil {
			t.Fatal(err)
		}
		if v := toMM(500); v <= prevMM {
			t.Errorf("MM overhead at p=%d not increasing: %g", p, v)
		} else {
			prevMM = v
		}
	}
}

func TestAnalyticErrors(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	if _, err := geOverhead(nil, m); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := geOverhead(cl, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := mmOverhead(nil, m); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := geSeqTime(nil); err == nil {
		t.Error("nil cluster accepted")
	}
}
