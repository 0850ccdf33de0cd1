package simnet

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

func mustModel(t *testing.T) *ParamModel {
	t.Helper()
	m, err := NewParamModel("sunwulf", Sunwulf100())
	if err != nil {
		t.Fatalf("NewParamModel: %v", err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	good := Sunwulf100()
	if err := good.Validate(); err != nil {
		t.Errorf("Sunwulf100 invalid: %v", err)
	}
	bad := good
	bad.BandwidthMBps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = good
	bad.LatencyMS = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	bad = good
	bad.BcastPerProcMS = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative bcast coefficient accepted")
	}
}

func TestNewParamModelErrors(t *testing.T) {
	if _, err := NewParamModel("", Sunwulf100()); err == nil {
		t.Error("empty label accepted")
	}
	bad := Sunwulf100()
	bad.BandwidthMBps = -2
	if _, err := NewParamModel("x", bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestModelMonotoneInSize(t *testing.T) {
	m := mustModel(t)
	prev := -1.0
	for _, b := range []int{0, 8, 64, 1024, 1 << 20} {
		tt := m.TransferTime(b)
		if tt <= prev {
			t.Errorf("TransferTime not increasing at %d bytes", b)
		}
		prev = tt
		if m.SendTime(b) < 0 || m.RecvTime(b) < 0 {
			t.Errorf("negative endpoint time at %d bytes", b)
		}
	}
	// 1 MB at 11 MB/s ≈ 90.9 ms serialization.
	got := m.TransferTime(1 << 20)
	want := Sunwulf100().LatencyMS + float64(1<<20)/(11.0*1000)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("TransferTime(1MB) = %g, want %g", got, want)
	}
}

func TestCollectiveScaling(t *testing.T) {
	m := mustModel(t)
	// Linear in p with the paper's coefficients.
	for _, p := range []int{2, 4, 8, 16, 32} {
		wantB := 0.23*float64(p) + m.TransferTime(WordBytes)
		if got := m.BcastTime(p, WordBytes); math.Abs(got-wantB) > 1e-9 {
			t.Errorf("BcastTime(%d) = %g, want %g", p, got, wantB)
		}
		if got := m.BarrierTime(p); math.Abs(got-0.39*float64(p)) > 1e-9 {
			t.Errorf("BarrierTime(%d) = %g, want %g", p, got, 0.39*float64(p))
		}
	}
	// Degenerate single participant: free.
	if m.BcastTime(1, 100) != 0 || m.BarrierTime(1) != 0 {
		t.Error("single-participant collectives should cost 0")
	}
}

func TestWireUncontendedMatchesModel(t *testing.T) {
	m := mustModel(t)
	k := des.NewKernel()
	w := NewWireMode(k, m, WireIdeal, 0)
	var done float64
	k.Spawn("tx", func(p *des.Proc) {
		done = w.Transmit(p, 1000)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := m.SendTime(1000) + m.TransferTime(1000)
	if math.Abs(done-want) > 1e-9 {
		t.Errorf("uncontended Transmit end = %g, want %g", done, want)
	}
}

func TestWireContentionSerializes(t *testing.T) {
	m := mustModel(t)
	const nTx, bytes = 4, 100000
	run := func(mode WireMode) (makespan float64, ends []float64) {
		k := des.NewKernel()
		w := NewWireMode(k, m, mode, 0)
		for i := 0; i < nTx; i++ {
			k.Spawn("tx", func(p *des.Proc) {
				ends = append(ends, w.Transmit(p, bytes))
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return k.Now(), ends
	}
	free, _ := run(WireIdeal)
	busy, ends := run(WireShared)
	if busy <= free {
		t.Errorf("contended makespan %g should exceed uncontended %g", busy, free)
	}
	// With capacity 1, total wire occupancy = nTx * transfer; makespan ≈
	// sendOverhead + nTx*transfer.
	wantBusy := m.SendTime(bytes) + float64(nTx)*m.TransferTime(bytes)
	if math.Abs(busy-wantBusy) > 1e-6 {
		t.Errorf("contended makespan = %g, want %g", busy, wantBusy)
	}
	sort.Float64s(ends)
	for i := 1; i < len(ends); i++ {
		if ends[i]-ends[i-1] < m.TransferTime(bytes)-1e-9 {
			t.Errorf("transfers overlap on contended wire: %v", ends)
		}
	}
}

func TestCalibrateRecoversParams(t *testing.T) {
	m := mustModel(t)
	cal, err := CalibrateModel(m, []int{2, 4, 8, 16, 32}, []int{8, 64, 512, 4096, 65536})
	if err != nil {
		t.Fatalf("CalibrateModel: %v", err)
	}
	if math.Abs(cal.BcastPerProcMS-0.23) > 1e-9 {
		t.Errorf("bcast slope = %g, want 0.23", cal.BcastPerProcMS)
	}
	if math.Abs(cal.BarrierPerProcMS-0.39) > 1e-9 {
		t.Errorf("barrier slope = %g, want 0.39", cal.BarrierPerProcMS)
	}
	// Per-byte point-to-point cost = 2*PerByteCopy + 1/bandwidth.
	p := Sunwulf100()
	wantPerByte := 2*p.PerByteCopyMS + 1/(p.BandwidthMBps*1000)
	if math.Abs(cal.SendPerByteMS-wantPerByte) > 1e-12 {
		t.Errorf("send per-byte = %g, want %g", cal.SendPerByteMS, wantPerByte)
	}
	for _, r2 := range []float64{cal.BcastR2, cal.BarrierR2, cal.SendR2} {
		if r2 < 1-1e-9 {
			t.Errorf("calibration R² = %g, want ~1", r2)
		}
	}
}

func TestCalibrateErrors(t *testing.T) {
	m := mustModel(t)
	var c Calibration
	if err := c.FitBcast([]float64{1}, []float64{1}); err == nil {
		t.Error("single-point fit accepted")
	}
	// Too few samples are skipped without error in CalibrateModel.
	cal, err := CalibrateModel(m, []int{3}, []int{8})
	if err != nil {
		t.Fatalf("CalibrateModel: %v", err)
	}
	if cal.BcastPerProcMS != 0 {
		t.Error("insufficient samples should leave calibration zero")
	}
}

// Property: point-to-point time is affine in bytes for the param model.
func TestPointToPointAffineQuick(t *testing.T) {
	m, err := NewParamModel("q", Sunwulf100())
	if err != nil {
		t.Fatal(err)
	}
	base := PointToPoint(m, 0)
	perByte := PointToPoint(m, 1) - base
	f := func(raw uint32) bool {
		b := int(raw % (1 << 24))
		got := PointToPoint(m, b)
		want := base + perByte*float64(b)
		return math.Abs(got-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
