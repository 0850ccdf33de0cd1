package workload_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Three-way engine differential over the registry: every registered
// workload must produce bit-identical virtual times, transport stats and
// numeric output checksums on the live, DES and symbolic engines. This
// is the workload-level face of the contract the random-program suite in
// internal/mpi proves at the primitive level — and the cross-validation
// that licenses trusting the symbolic engine at ranks the event engines
// cannot reach.

var wlEngines = []struct {
	name string
	opts mpi.Options
}{
	{"live", mpi.Options{Engine: mpi.EngineLive}},
	{"des", mpi.Options{Engine: mpi.EngineDES}},
	{"symbolic", mpi.Options{Engine: mpi.EngineSymbolic}},
}

// requireOutcomeBitIdentical asserts two Outcomes agree exactly in every
// dimension an engine can influence.
func requireOutcomeBitIdentical(t *testing.T, label string, base, got workload.Outcome) {
	t.Helper()
	requireSameCost(t, label, base, got)
	if base.Check != got.Check {
		t.Errorf("%s: output checksums differ: %#x vs %#x", label, base.Check, got.Check)
	}
}

// requireSameCost asserts two Outcomes agree exactly in everything but
// the numeric output: work, virtual times and traffic — what a symbolic
// run must share with a real-data one.
func requireSameCost(t *testing.T, label string, base, got workload.Outcome) {
	t.Helper()
	if base.Work != got.Work {
		t.Errorf("%s: Work differs: %g vs %g", label, base.Work, got.Work)
	}
	if base.VirtualTime != got.VirtualTime {
		t.Errorf("%s: VirtualTime differs: %v vs %v", label, base.VirtualTime, got.VirtualTime)
	}
	if base.Stats.TimeMS != got.Stats.TimeMS {
		t.Errorf("%s: makespan differs: %v vs %v", label, base.Stats.TimeMS, got.Stats.TimeMS)
	}
	if base.Stats.Messages != got.Stats.Messages || base.Stats.BytesMoved != got.Stats.BytesMoved {
		t.Errorf("%s: traffic differs: %d/%d vs %d/%d", label,
			base.Stats.Messages, base.Stats.BytesMoved, got.Stats.Messages, got.Stats.BytesMoved)
	}
	for r := range base.Stats.RankClocks {
		if base.Stats.RankClocks[r] != got.Stats.RankClocks[r] {
			t.Errorf("%s rank %d: clocks differ: %v vs %v", label, r,
				base.Stats.RankClocks[r], got.Stats.RankClocks[r])
		}
		if base.Stats.ComputeMS[r] != got.Stats.ComputeMS[r] {
			t.Errorf("%s rank %d: compute differs", label, r)
		}
		if base.Stats.CommMS[r] != got.Stats.CommMS[r] {
			t.Errorf("%s rank %d: comm differs: %v vs %v", label, r,
				base.Stats.CommMS[r], got.Stats.CommMS[r])
		}
	}
}

func TestWorkloadsThreeEngineDifferential(t *testing.T) {
	model := confModel(t)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			cl := confCluster(t, w, confP)
			spec := workload.Spec{N: confN, Seed: confSeed}
			var base workload.Outcome
			for i, eng := range wlEngines {
				got, err := w.Run(context.Background(), cl, model, eng.opts, spec)
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
				if got.Check == 0 {
					t.Fatalf("%s: Check = 0 on a numeric run", eng.name)
				}
				if i == 0 {
					base = got
					continue
				}
				requireOutcomeBitIdentical(t, wlEngines[0].name+" vs "+eng.name, base, got)
			}
		})
	}
}

func TestWorkloadsSymbolicMatchesDESAtP32(t *testing.T) {
	// The acceptance bound of the symbolic substrate's bitwise contract:
	// at the widest paper rung (p = 32) every workload's symbolic run must
	// equal the DES run exactly — virtual time, stats, and the numeric
	// output checksum. (The p=4 matrix above covers the live engine.)
	model := confModel(t)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			cl := confCluster(t, w, 32)
			spec := workload.Spec{N: 96, Seed: confSeed}
			des, err := w.Run(context.Background(), cl, model, mpi.Options{Engine: mpi.EngineDES}, spec)
			if err != nil {
				t.Fatal(err)
			}
			sym, err := w.Run(context.Background(), cl, model, mpi.Options{Engine: mpi.EngineSymbolic}, spec)
			if err != nil {
				t.Fatal(err)
			}
			if des.Check == 0 {
				t.Fatal("Check = 0 on a numeric run")
			}
			requireOutcomeBitIdentical(t, "des vs symbolic", des, sym)
		})
	}
}

// FuzzSymbolicVsDESWorkloads fuzzes the bitwise contract across the whole
// registry surface: workload choice, problem size, rung width and network
// constants are all adversarial, and symbolic-vs-DES agreement must never
// diverge — nor may a symbolic-data run (Blank payloads) on the symbolic
// engine cost anything but what the real-data DES run costs.
func FuzzSymbolicVsDESWorkloads(f *testing.F) {
	f.Add(uint8(0), uint16(33), uint8(2), 0.1, 11.0)
	f.Add(uint8(1), uint16(64), uint8(6), 0.0, 1.0)
	f.Add(uint8(2), uint16(17), uint8(3), 2.0, 250.0)
	f.Add(uint8(3), uint16(48), uint8(0), 0.4, 55.5)
	// spmv at n = 19 on the p = 7 rung: the proportional split leaves a
	// rank one row, below the halo depth.
	f.Add(uint8(5), uint16(3), uint8(5), 0.1, 11.0)
	f.Fuzz(func(t *testing.T, wsel uint8, nRaw uint16, psel uint8, latency, bw float64) {
		ws := workload.All()
		w := ws[int(wsel)%len(ws)]
		n := 16 + int(nRaw%48)
		p := 2 + int(psel%7)
		params := simnet.Sunwulf100()
		params.LatencyMS = fuzzClamp(latency, 10)
		params.BandwidthMBps = 1 + fuzzClamp(bw, 1000)
		model, err := simnet.NewParamModel("fuzz", params)
		if err != nil {
			t.Skip("invalid params")
		}
		cl, err := w.ClusterLadder(p)
		if err != nil {
			t.Skip("no such rung")
		}
		spec := workload.Spec{N: n, Seed: int64(nRaw) + int64(psel)}
		des, err := w.Run(context.Background(), cl, model, mpi.Options{Engine: mpi.EngineDES}, spec)
		if err != nil {
			t.Fatalf("%s des: %v", w.Name(), err)
		}
		sym, err := w.Run(context.Background(), cl, model, mpi.Options{Engine: mpi.EngineSymbolic}, spec)
		if err != nil {
			t.Fatalf("%s symbolic: %v", w.Name(), err)
		}
		requireOutcomeBitIdentical(t, w.Name(), des, sym)
		spec.Symbolic = true
		blank, err := w.Run(context.Background(), cl, model, mpi.Options{Engine: mpi.EngineSymbolic}, spec)
		if err != nil {
			t.Fatalf("%s symbolic data: %v", w.Name(), err)
		}
		requireSameCost(t, w.Name()+" symbolic data", des, blank)
	})
}

// fuzzClamp folds an arbitrary fuzzed float into [0, hi], mapping NaN/Inf
// to 0.
func fuzzClamp(v, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), hi)
}
