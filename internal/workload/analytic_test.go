package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/simnet"
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

// refGEOverhead and refMMOverhead are the GE and MM overheads as a plain
// loop over ranks: one cost-model call per peer per phase, each term
// added in rank order.
func refGEOverhead(cl *cluster.Cluster, m simnet.CostModel) func(n float64) float64 {
	speeds := cl.Speeds()
	p := len(speeds)
	var total float64
	for _, s := range speeds {
		total += s
	}
	return func(n float64) float64 {
		var to float64
		for r := 1; r < p; r++ {
			rows := n * speeds[r] / total
			bA := int(wordB * rows * n)
			bR := int(wordB * rows)
			to += m.SendTime(bA) + m.TransferTime(bA)
			to += m.SendTime(bR) + m.TransferTime(bR)
		}
		iters := n - 1
		if iters < 0 {
			iters = 0
		}
		bPiv := int(wordB * (n + 1))
		to += iters * (m.BcastTime(p, bPiv) + m.BarrierTime(p))
		for r := 1; r < p; r++ {
			rows := n * speeds[r] / total
			bU := int(wordB * rows * (n + 1))
			to += m.TransferTime(bU) + m.RecvTime(bU)
		}
		return to
	}
}

func refMMOverhead(cl *cluster.Cluster, m simnet.CostModel) func(n float64) float64 {
	speeds := cl.Speeds()
	p := len(speeds)
	var total float64
	for _, s := range speeds {
		total += s
	}
	return func(n float64) float64 {
		var to float64
		for r := 1; r < p; r++ {
			rows := n * speeds[r] / total
			bA := int(wordB * rows * n)
			to += m.SendTime(bA) + m.TransferTime(bA)
		}
		bB := int(wordB * n * n)
		to += m.BcastTime(p, bB)
		for r := 1; r < p; r++ {
			rows := n * speeds[r] / total
			bC := int(wordB * rows * n)
			to += m.TransferTime(bC) + m.RecvTime(bC)
		}
		return to
	}
}

// TestOverheadBitsMatchPerRankLoop: the GE and MM overheads call the
// cost model once per run of equal peer speeds, yet every value keeps
// the bits of the per-rank loop, on the paper ladders, uniform ladders
// and seeded speed vectors with runs of equal speeds.
func TestOverheadBitsMatchPerRankLoop(t *testing.T) {
	m := testModel(t)
	var cls []*cluster.Cluster
	add := func(cl *cluster.Cluster, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		cls = append(cls, cl)
	}
	for _, p := range []int{2, 3, 8, 33, 1000} {
		add(cluster.GEConfig(p))
		add(cluster.MMConfig(p))
		add(cluster.Uniform(fmt.Sprintf("U%d", p), p, cluster.SunBladeMflops))
	}
	rng := rand.New(rand.NewSource(35))
	levels := []float64{cluster.ServerCPUMflops, cluster.SunBladeMflops, cluster.V210CPUMflops, 0.3, 1234.5}
	for v := 0; v < 20; v++ {
		var nodes []cluster.Node
		for size := 1 + rng.Intn(400); len(nodes) < size; {
			speed := levels[rng.Intn(len(levels))]
			for k := 1 + rng.Intn(40); k > 0 && len(nodes) < size; k-- {
				nodes = append(nodes, cluster.Node{Name: fmt.Sprintf("n%d", len(nodes)), SpeedMflops: speed})
			}
		}
		add(cluster.New(fmt.Sprintf("seeded%d", v), nodes...))
	}
	for _, cl := range cls {
		ge, err := geOverhead(cl, m)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := mmOverhead(cl, m)
		if err != nil {
			t.Fatal(err)
		}
		refGE, refMM := refGEOverhead(cl, m), refMMOverhead(cl, m)
		for _, n := range []float64{1, 7.5, 1e3, 1e6, 1e12} {
			if got, want := ge(n), refGE(n); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s (p=%d) n=%g: GE overhead %v, per-rank loop %v", cl.Name, cl.Size(), n, got, want)
			}
			if got, want := mm(n), refMM(n); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s (p=%d) n=%g: MM overhead %v, per-rank loop %v", cl.Name, cl.Size(), n, got, want)
			}
		}
	}
}
