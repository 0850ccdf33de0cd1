package core

import "testing"

func TestParallelEfficiency(t *testing.T) {
	// Perfect speedup: Tseq = p·Tpar -> E = 1.
	e, err := ParallelEfficiency(400, 100, 4)
	if err != nil || e != 1 {
		t.Errorf("E = %g, %v; want 1", e, err)
	}
	e, err = ParallelEfficiency(400, 200, 4)
	if err != nil || e != 0.5 {
		t.Errorf("E = %g, %v; want 0.5", e, err)
	}
	if _, err := ParallelEfficiency(0, 1, 2); err == nil {
		t.Error("zero Tseq accepted")
	}
	if _, err := ParallelEfficiency(1, 1, 0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestEstimateSeqTime(t *testing.T) {
	// 1e6 flops at 100 Mflops, δ=0.5 -> 1e6/(100·0.5·1e3) = 20 ms.
	ts, err := EstimateSeqTime(1e6, 100, 0.5)
	if err != nil || !almostEq(ts, 20, 1e-12) {
		t.Errorf("Tseq = %g, %v; want 20", ts, err)
	}
	if _, err := EstimateSeqTime(1e6, 100, 0); err == nil {
		t.Error("δ=0 accepted")
	}
	if _, err := EstimateSeqTime(-1, 100, 0.5); err == nil {
		t.Error("negative work accepted")
	}
}

func TestIsoefficiencyPsiMatchesIsospeed(t *testing.T) {
	a, err := IsoefficiencyPsi(2, 1e8, 8, 5e8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := IsospeedPsi(2, 1e8, 8, 5e8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("isoefficiency %g != isospeed %g in ratio form", a, b)
	}
}

func TestProductivity(t *testing.T) {
	p1 := Productivity{ThroughputPerSec: 100, ValuePerJob: 2, CostPerSec: 10}
	f, err := p1.F()
	if err != nil || f != 20 {
		t.Errorf("F = %g, %v; want 20", f, err)
	}
	// Doubling throughput and cost keeps productivity constant -> ψ = 1.
	p2 := Productivity{ThroughputPerSec: 200, ValuePerJob: 2, CostPerSec: 20}
	psi, err := ProductivityPsi(p1, p2)
	if err != nil || psi != 1 {
		t.Errorf("ψ = %g, %v; want 1", psi, err)
	}
	// Cost growing faster than delivered value -> ψ < 1.
	p3 := Productivity{ThroughputPerSec: 200, ValuePerJob: 2, CostPerSec: 50}
	psi, err = ProductivityPsi(p1, p3)
	if err != nil || psi >= 1 {
		t.Errorf("ψ = %g, %v; want < 1", psi, err)
	}
	bad := Productivity{}
	if _, err := bad.F(); err == nil {
		t.Error("zero productivity accepted")
	}
	if _, err := ProductivityPsi(bad, p1); err == nil {
		t.Error("invalid scale1 accepted")
	}
	if _, err := ProductivityPsi(p1, bad); err == nil {
		t.Error("invalid scale2 accepted")
	}
}

func TestPastorBosqueEfficiency(t *testing.T) {
	// Cluster 4x the reference node, parallel run 4x faster than the
	// reference sequential run -> heterogeneous efficiency 1.
	e, err := PastorBosqueEfficiency(400, 100, 400, 100)
	if err != nil || e != 1 {
		t.Errorf("E = %g, %v; want 1", e, err)
	}
	// Half the ideal speedup -> 0.5.
	e, err = PastorBosqueEfficiency(400, 200, 400, 100)
	if err != nil || e != 0.5 {
		t.Errorf("E = %g, %v; want 0.5", e, err)
	}
	if _, err := PastorBosqueEfficiency(0, 1, 1, 1); err == nil {
		t.Error("zero Tseq accepted")
	}
}
