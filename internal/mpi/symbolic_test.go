package mpi

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// Tests specific to the symbolic fast-forward transport: scheduler edge
// paths (deadlock, wake ordering at scale) and the fuzzed agreement of the
// symbolic and live engines with DES. The engine-matrix tests in
// mpi_test.go and the differential suite already exercise it alongside the
// other engines.

func TestSymbolicDeadlockReported(t *testing.T) {
	cl := testCluster(t, 50, 50)
	m := testModel(t)
	_, err := Run(context.Background(), cl, m, Options{Engine: EngineSymbolic}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 3) // rank 1 never sends
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error = %v, want symbolic deadlock report", err)
	}
}

func TestSymbolicCrossDeadlockUnwinds(t *testing.T) {
	// Both ranks Recv first: a classic head-to-head deadlock. The scheduler
	// must notice that no rank is runnable, unwind both, and report it —
	// not hang.
	cl := testCluster(t, 50, 50)
	m := testModel(t)
	_, err := Run(context.Background(), cl, m, Options{Engine: EngineSymbolic}, func(c *Comm) error {
		other := 1 - c.Rank()
		c.Recv(other, 1)
		c.Send(other, 1, []float64{1})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error = %v, want symbolic deadlock report", err)
	}
}

func TestSymbolicManyRanksMatchesDES(t *testing.T) {
	// A wider world than the differential suite uses: ring shifts,
	// collectives and skewed compute across 96 ranks must fast-forward to
	// the exact clocks the DES engine computes.
	speeds := make([]float64, 96)
	for i := range speeds {
		speeds[i] = 40 + float64(i%7)*9.5
	}
	cl := testCluster(t, speeds...)
	m := testModel(t)
	prog := func(c *Comm) error {
		p := c.Size()
		for iter := 0; iter < 10; iter++ {
			c.Compute(1e4 * float64((c.Rank()+iter)%5+1))
			to := (c.Rank() + 1) % p
			from := (c.Rank() + p - 1) % p
			c.ISend(to, iter, []float64{float64(c.Rank())})
			c.Recv(from, iter)
			if iter%3 == 0 {
				c.Barrier()
			}
		}
		c.Allreduce(c.Clock(), OpMax)
		return nil
	}
	des, err := Run(context.Background(), cl, m, Options{Engine: EngineDES}, prog)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := Run(context.Background(), cl, m, Options{Engine: EngineSymbolic}, prog)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "p=96", des, sym, EngineDES, EngineSymbolic)
}

// FuzzSymbolicVsDESPrograms asserts the engines' shared contract on
// arbitrary inputs: for any random program, world size and (valid) network
// parameters, the symbolic fast-forward engine and the live engine both
// produce times, accounting and traffic bit-identical to the DES engine's.
func FuzzSymbolicVsDESPrograms(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(4), 0.1, 11.0, 0.03, 0.23, 0.39)
	f.Add(int64(42), uint8(30), uint8(7), 0.0, 1.0, 0.0, 0.0, 0.0)
	f.Add(int64(-9), uint8(1), uint8(2), 2.5, 120.0, 0.4, 1.1, 0.05)
	f.Fuzz(func(t *testing.T, seed int64, steps, psel uint8,
		latency, bw, overhead, bcastPer, barrierPer float64) {
		params := simnet.Params{
			LatencyMS:        clampParam(latency, 10),
			BandwidthMBps:    1 + clampParam(bw, 1000),
			SendOverheadMS:   clampParam(overhead, 5),
			RecvOverheadMS:   clampParam(overhead, 5),
			PerByteCopyMS:    clampParam(overhead, 1) * 1e-4,
			BcastPerProcMS:   clampParam(bcastPer, 5),
			BarrierPerProcMS: clampParam(barrierPer, 5),
		}
		m, err := simnet.NewParamModel("fuzz", params)
		if err != nil {
			t.Skip("invalid params")
		}
		p := 2 + int(psel%7)
		speeds := make([]float64, p)
		for i := range speeds {
			speeds[i] = 30 + float64((int(psel)+i)%11)*7.3
		}
		cl := testCluster(t, speeds...)
		prog := randomProgram(seed, 1+int(steps%40))
		des, err := Run(context.Background(), cl, m, Options{Engine: EngineDES}, prog)
		if err != nil {
			t.Fatalf("des: %v", err)
		}
		sym, err := Run(context.Background(), cl, m, Options{Engine: EngineSymbolic}, prog)
		if err != nil {
			t.Fatalf("symbolic: %v", err)
		}
		requireBitIdentical(t, "fuzz", des, sym, EngineDES, EngineSymbolic)
		live, err := Run(context.Background(), cl, m, Options{Engine: EngineLive}, prog)
		if err != nil {
			t.Fatalf("live: %v", err)
		}
		requireBitIdentical(t, "fuzz", des, live, EngineDES, EngineLive)
	})
}

// clampParam folds an arbitrary fuzzed float into [0, hi], rejecting
// NaN/Inf to 0 so Params.Validate never sees garbage the model layer is
// not responsible for.
func clampParam(v, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	v = math.Abs(v)
	return math.Mod(v, hi)
}
