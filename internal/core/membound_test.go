package core

import (
	"math"
	"testing"
	"testing/quick"
)

// distributedGE is a row-distributed GE's need: each rank holds its
// share of the rows plus two length-n vectors.
func distributedGE(n, share float64) float64 { return 8 * (share*n*n + 2*n) }

func TestMaxProblemSize(t *testing.T) {
	// One rank with 80 MB, full share, distributed GE: need 8n² <= 80e6
	// -> n <= ~3162 (plus the 2n term).
	ranks := []NodeMemory{{MemBytes: 80e6, Share: 1}}
	n, err := MaxProblemSize(ranks, distributedGE, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if n < 3100 || n > 3162 {
		t.Errorf("MaxProblemSize = %d, want ~3160", n)
	}
	// Exact check: n fits, n+1 does not.
	need := distributedGE
	if need(float64(n), 1) > 80e6 || need(float64(n+1), 1) <= 80e6 {
		t.Errorf("boundary wrong at %d", n)
	}
}

func TestMaxProblemSizeHeterogeneous(t *testing.T) {
	// The smallest-memory rank binds; with MM replication (a band of A
	// and C plus all of B) even a fast, small-memory node is the limit.
	ranks := []NodeMemory{
		{MemBytes: 4e9, Share: 0.3},
		{MemBytes: 128e6, Share: 0.2},
		{MemBytes: 2e9, Share: 0.5},
	}
	mm := func(n, share float64) float64 { return 8 * (2*share*n*n + n*n) }
	n, err := MaxProblemSize(ranks, mm, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// 128 MB node: 8(2·0.2·n² + n²) = 8·1.4n² <= 128e6 -> n ~ 3380.
	want := math.Sqrt(128e6 / (8 * 1.4))
	if math.Abs(float64(n)-want) > 2 {
		t.Errorf("MaxProblemSize = %d, want ≈ %.0f", n, want)
	}
}

func TestMaxProblemSizeErrors(t *testing.T) {
	need := distributedGE
	if _, err := MaxProblemSize(nil, need, 100); err == nil {
		t.Error("no ranks accepted")
	}
	if _, err := MaxProblemSize([]NodeMemory{{MemBytes: 1, Share: 0.5}}, nil, 100); err == nil {
		t.Error("nil need accepted")
	}
	if _, err := MaxProblemSize([]NodeMemory{{MemBytes: 0, Share: 0.5}}, need, 100); err == nil {
		t.Error("zero memory accepted")
	}
	if _, err := MaxProblemSize([]NodeMemory{{MemBytes: 1e6, Share: 2}}, need, 100); err == nil {
		t.Error("share > 1 accepted")
	}
	if _, err := MaxProblemSize([]NodeMemory{{MemBytes: 1e6, Share: 0.5}}, need, 0); err == nil {
		t.Error("limit 0 accepted")
	}
	// Even n=1 not fitting is an error.
	if _, err := MaxProblemSize([]NodeMemory{{MemBytes: 10, Share: 1}}, need, 100); err == nil {
		t.Error("impossible fit accepted")
	}
}

func TestMemoryBoundedCheck(t *testing.T) {
	m := gePredictMachine("C8", 411.1, 9)
	roomy := []NodeMemory{{MemBytes: 1e12, Share: 1}}
	need := distributedGE
	res, err := MemoryBoundedCheck(m, roomy, need, 0.3, 10, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounded {
		t.Errorf("roomy memory flagged as bounded: %+v", res)
	}
	if res.AchievableEff != 0.3 {
		t.Errorf("achievable eff %g, want target", res.AchievableEff)
	}

	// Tiny memory: required N cannot fit; achievable efficiency < target.
	tiny := []NodeMemory{{MemBytes: 2e6, Share: 1}}
	res, err = MemoryBoundedCheck(m, tiny, need, 0.3, 10, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bounded {
		t.Fatalf("tiny memory not flagged: %+v", res)
	}
	if res.AchievableEff >= 0.3 {
		t.Errorf("achievable eff %g should be below target", res.AchievableEff)
	}
	if float64(res.MaxN) >= res.RequiredN {
		t.Errorf("MaxN %d should be below RequiredN %g", res.MaxN, res.RequiredN)
	}

	bad := m
	bad.C = 0
	if _, err := MemoryBoundedCheck(bad, roomy, need, 0.3, 10, 1e6); err == nil {
		t.Error("invalid machine accepted")
	}
}

// Property: MaxProblemSize is monotone in memory.
func TestMaxProblemSizeMonotoneQuick(t *testing.T) {
	need := distributedGE
	f := func(raw uint32) bool {
		mem := 1e5 + float64(raw%1000)*1e5
		n1, err1 := MaxProblemSize([]NodeMemory{{MemBytes: mem, Share: 1}}, need, 1e6)
		n2, err2 := MaxProblemSize([]NodeMemory{{MemBytes: 2 * mem, Share: 1}}, need, 1e6)
		if err1 != nil || err2 != nil {
			return false
		}
		return n2 >= n1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
