package mpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/simnet"
)

func testModel(t *testing.T) simnet.CostModel {
	t.Helper()
	m, err := simnet.NewParamModel("test", simnet.Sunwulf100())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testCluster(t *testing.T, speeds ...float64) *cluster.Cluster {
	t.Helper()
	nodes := make([]cluster.Node, len(speeds))
	for i, s := range speeds {
		nodes[i] = cluster.Node{Name: fmt.Sprintf("n%d", i), Class: "T", SpeedMflops: s, MemMB: 256}
	}
	c, err := cluster.New("test", nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var engines = []struct {
	name string
	opts Options
}{
	{"live", Options{Engine: EngineLive}},
	{"des", Options{Engine: EngineDES}},
	{"des-contended", Options{Engine: EngineDES, Network: simnet.WireShared}},
	{"symbolic", Options{Engine: EngineSymbolic}},
}

func TestValidateRun(t *testing.T) {
	cl := testCluster(t, 10, 10)
	m := testModel(t)
	prog := func(c *Comm) error { return nil }
	if _, err := Run(context.Background(), nil, m, Options{}, prog); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := Run(context.Background(), cl, nil, Options{}, prog); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Run(context.Background(), cl, m, Options{}, nil); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := Run(context.Background(), cl, m, Options{Engine: EngineLive, Network: simnet.WireShared}, prog); err == nil {
		t.Error("live+shared network accepted")
	}
	if _, err := Run(context.Background(), cl, m, Options{Engine: EngineSymbolic, Network: simnet.WireShared}, prog); err == nil {
		t.Error("symbolic+shared network accepted")
	}
	if _, err := Run(context.Background(), cl, m, Options{Engine: EngineSymbolic, Network: simnet.WireSwitched}, prog); err == nil {
		t.Error("symbolic+switched network accepted")
	}
	if _, err := Run(context.Background(), cl, m, Options{Engine: Engine(99)}, prog); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestEngineString(t *testing.T) {
	if EngineLive.String() != "live" || EngineDES.String() != "des" || EngineSymbolic.String() != "symbolic" {
		t.Error("engine names wrong")
	}
	if !strings.Contains(Engine(9).String(), "9") {
		t.Error("unknown engine String")
	}
}

func TestComputeCostExact(t *testing.T) {
	cl := testCluster(t, 40, 80) // rank 1 twice as fast
	m := testModel(t)
	for _, e := range engines {
		res, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			c.Compute(8000) // flops
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		// 8000 flops at 40 Mflops = 8000/(40*1e3) ms = 0.2 ms; at 80 -> 0.1.
		if math.Abs(res.RankClocks[0]-0.2) > 1e-12 {
			t.Errorf("%s: rank0 clock %g, want 0.2", e.name, res.RankClocks[0])
		}
		if math.Abs(res.RankClocks[1]-0.1) > 1e-12 {
			t.Errorf("%s: rank1 clock %g, want 0.1", e.name, res.RankClocks[1])
		}
		if math.Abs(res.TimeMS-0.2) > 1e-12 {
			t.Errorf("%s: makespan %g, want 0.2", e.name, res.TimeMS)
		}
		if math.Abs(res.ComputeMS[0]-0.2) > 1e-12 || res.CommMS[0] != 0 {
			t.Errorf("%s: accounting wrong: %+v", e.name, res)
		}
	}
}

func TestSendRecvCostAndData(t *testing.T) {
	cl := testCluster(t, 50, 50)
	m := testModel(t)
	payload := []float64{1, 2, 3, 4, 5}
	b := simnet.WordBytes * len(payload)
	for _, e := range engines {
		var got []float64
		res, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 7, payload)
			} else {
				got = c.Recv(0, 7)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for i, v := range payload {
			if got[i] != v {
				t.Fatalf("%s: payload corrupted: %v", e.name, got)
			}
		}
		wantSender := m.SendTime(b) + m.TransferTime(b)
		wantRecver := wantSender + m.RecvTime(b)
		if math.Abs(res.RankClocks[0]-wantSender) > 1e-9 {
			t.Errorf("%s: sender clock %g, want %g", e.name, res.RankClocks[0], wantSender)
		}
		if math.Abs(res.RankClocks[1]-wantRecver) > 1e-9 {
			t.Errorf("%s: receiver clock %g, want %g", e.name, res.RankClocks[1], wantRecver)
		}
		if res.Messages != 1 || res.BytesMoved != int64(b) {
			t.Errorf("%s: message accounting %d msgs %d bytes", e.name, res.Messages, res.BytesMoved)
		}
	}
}

func TestRecvWaitsForLateSender(t *testing.T) {
	cl := testCluster(t, 50, 50)
	m := testModel(t)
	for _, e := range engines {
		res, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Compute(500000) // 10 ms of work before sending
				c.Send(1, 1, []float64{42})
			} else {
				v := c.Recv(0, 1)
				if v[0] != 42 {
					return fmt.Errorf("bad payload %v", v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		b := simnet.WordBytes
		want := 10 + m.SendTime(b) + m.TransferTime(b) + m.RecvTime(b)
		if math.Abs(res.RankClocks[1]-want) > 1e-9 {
			t.Errorf("%s: receiver clock %g, want %g", e.name, res.RankClocks[1], want)
		}
		// Receiver's comm time includes the waiting.
		if res.CommMS[1] < 10 {
			t.Errorf("%s: receiver comm %g should include waiting", e.name, res.CommMS[1])
		}
	}
}

func TestBcastSemantics(t *testing.T) {
	cl := testCluster(t, 50, 50, 50, 50)
	m := testModel(t)
	data := []float64{3.14, 2.71}
	b := simnet.WordBytes * len(data)
	for _, e := range engines {
		vals := make([][]float64, 4)
		res, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			var in []float64
			if c.Rank() == 2 {
				in = data
			}
			vals[c.Rank()] = c.Bcast(2, in)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		want := m.BcastTime(4, b)
		for r := 0; r < 4; r++ {
			if vals[r][0] != 3.14 || vals[r][1] != 2.71 {
				t.Errorf("%s: rank %d payload %v", e.name, r, vals[r])
			}
			if math.Abs(res.RankClocks[r]-want) > 1e-9 {
				t.Errorf("%s: rank %d clock %g, want %g", e.name, r, res.RankClocks[r], want)
			}
		}
	}
}

func TestBcastInsulatesFromRootBufferReuse(t *testing.T) {
	// The root may reuse/overwrite its input buffer after Bcast returns
	// (GE reuses the pivot buffer every iteration); receivers must still
	// see the value broadcast, not the overwritten one. The iteration
	// barrier orders the reuse after all receivers are done reading.
	cl := testCluster(t, 50, 50, 50)
	m := testModel(t)
	got := make([]float64, 3)
	_, err := Run(context.Background(), cl, m, Options{}, func(c *Comm) error {
		buf := []float64{7}
		for iter := 0; iter < 3; iter++ {
			var in []float64
			if c.Rank() == 0 {
				buf[0] = float64(iter) // root reuses buf
				in = buf
			}
			out := c.Bcast(0, in)
			got[c.Rank()] = out[0]
			if out[0] != float64(iter) {
				return fmt.Errorf("iter %d: rank %d saw %g", iter, c.Rank(), out[0])
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range got {
		if v != 2 {
			t.Errorf("rank %d final value %g, want 2", r, v)
		}
	}
}

func TestBarrierSyncsToMax(t *testing.T) {
	cl := testCluster(t, 50, 50, 50)
	m := testModel(t)
	for _, e := range engines {
		res, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			// Rank r computes r*5 ms of work (50 Mflops), then barrier.
			c.Compute(float64(c.Rank()) * 5 * 50e3)
			c.Barrier()
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		want := 10 + m.BarrierTime(3)
		for r := 0; r < 3; r++ {
			if math.Abs(res.RankClocks[r]-want) > 1e-9 {
				t.Errorf("%s: rank %d clock %g, want %g", e.name, r, res.RankClocks[r], want)
			}
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	cl := testCluster(t, 50, 50)
	m := testModel(t)
	for _, e := range engines {
		res, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			for i := 0; i < 50; i++ {
				c.Barrier()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		want := 50 * m.BarrierTime(2)
		if math.Abs(res.TimeMS-want) > 1e-9 {
			t.Errorf("%s: %g, want %g", e.name, res.TimeMS, want)
		}
	}
}

// TestBarrierAllocatesNothingInSteadyState checks that the barrier
// reuses its two generation slots: on every engine a run of 1,000
// barriers allocates no more than a run of 10. The 1-KiB slack, a byte
// per barrier, absorbs the odd allocation the race detector makes of
// its own.
func TestBarrierAllocatesNothingInSteadyState(t *testing.T) {
	barriers := func(n int) Program {
		return func(c *Comm) error {
			for i := 0; i < n; i++ {
				c.Barrier()
			}
			return nil
		}
	}
	for _, e := range engines {
		_, few := allocRun(t, e.opts, barriers(10))
		_, many := allocRun(t, e.opts, barriers(1000))
		if many > few+1024 {
			t.Errorf("%s: 1,000 barriers allocate %d B, 10 allocate %d B", e.name, many, few)
		}
	}
}

func TestGathervScatterv(t *testing.T) {
	cl := testCluster(t, 50, 60, 70)
	m := testModel(t)
	for _, e := range engines {
		var gathered [][]float64
		parts := [][]float64{{0, 0}, {1, 1}, {2}}
		var scattered [3][]float64
		_, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			mine := []float64{float64(c.Rank()), 100}
			g := c.Gatherv(1, mine)
			if c.Rank() == 1 {
				gathered = g
			} else if g != nil {
				return errors.New("non-root got gather result")
			}
			var in [][]float64
			if c.Rank() == 0 {
				in = parts
			}
			scattered[c.Rank()] = c.Scatterv(0, in)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for r := 0; r < 3; r++ {
			if gathered[r][0] != float64(r) || gathered[r][1] != 100 {
				t.Errorf("%s: gathered[%d] = %v", e.name, r, gathered[r])
			}
			if len(scattered[r]) != len(parts[r]) || scattered[r][0] != parts[r][0] {
				t.Errorf("%s: scattered[%d] = %v, want %v", e.name, r, scattered[r], parts[r])
			}
		}
	}
}

func TestReduceAllreduce(t *testing.T) {
	cl := testCluster(t, 50, 50, 50, 50)
	m := testModel(t)
	for _, e := range engines {
		sums := make([]float64, 4)
		all := make([]float64, 4)
		_, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			v := float64(c.Rank() + 1) // 1..4, sum 10
			sums[c.Rank()] = c.Reduce(0, v, OpSum)
			all[c.Rank()] = c.Allreduce(v, OpMax)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if sums[0] != 10 {
			t.Errorf("%s: Reduce = %g, want 10", e.name, sums[0])
		}
		for r := 1; r < 4; r++ {
			if sums[r] != 0 {
				t.Errorf("%s: non-root Reduce = %g", e.name, sums[r])
			}
		}
		for r := 0; r < 4; r++ {
			if all[r] != 4 {
				t.Errorf("%s: Allreduce[%d] = %g, want 4", e.name, r, all[r])
			}
		}
	}
}

func TestReduceOps(t *testing.T) {
	if OpSum(2, 3) != 5 || OpMax(2, 3) != 3 || OpMax(4, 3) != 4 {
		t.Error("reduce ops wrong")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cl := testCluster(t, 37.2, 42.1, 89.5, 89.5)
	m := testModel(t)
	prog := func(c *Comm) error {
		for i := 0; i < 5; i++ {
			data := c.Bcast(0, []float64{float64(i), 1, 2, 3})
			c.Compute(1000 * float64(c.Rank()+1) * data[0])
			if c.Rank() > 0 {
				c.Send(0, i, []float64{c.Clock()})
			} else {
				for r := 1; r < c.Size(); r++ {
					c.Recv(r, i)
				}
			}
			c.Barrier()
		}
		return nil
	}
	for _, e := range engines {
		var first Result
		for iter := 0; iter < 10; iter++ {
			res, err := Run(context.Background(), cl, m, e.opts, prog)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if iter == 0 {
				first = res
				continue
			}
			if res.TimeMS != first.TimeMS || res.Messages != first.Messages || res.BytesMoved != first.BytesMoved {
				t.Fatalf("%s: nondeterministic result: %+v vs %+v", e.name, res, first)
			}
			for r := range res.RankClocks {
				if res.RankClocks[r] != first.RankClocks[r] {
					t.Fatalf("%s: rank %d clock differs across runs", e.name, r)
				}
			}
		}
	}
}

func TestLiveAndDESAgreeWithoutContention(t *testing.T) {
	cl := testCluster(t, 37.2, 42.1, 89.5, 89.5, 42.1)
	m := testModel(t)
	prog := func(c *Comm) error {
		c.Compute(5e4 * float64(c.Rank()+1))
		data := c.Bcast(2, []float64{1, 2, 3, 4, 5, 6, 7, 8})
		c.Compute(1e4 * data[3])
		g := c.Gatherv(0, []float64{float64(c.Rank())})
		_ = g
		c.Barrier()
		v := c.Allreduce(float64(c.Rank()), OpSum)
		c.Compute(v * 100)
		return nil
	}
	live, err := Run(context.Background(), cl, m, Options{Engine: EngineLive}, prog)
	if err != nil {
		t.Fatal(err)
	}
	des, err := Run(context.Background(), cl, m, Options{Engine: EngineDES}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(live.TimeMS-des.TimeMS) > 1e-9 {
		t.Errorf("makespans differ: live %g vs des %g", live.TimeMS, des.TimeMS)
	}
	for r := range live.RankClocks {
		if math.Abs(live.RankClocks[r]-des.RankClocks[r]) > 1e-9 {
			t.Errorf("rank %d clocks differ: live %g vs des %g", r, live.RankClocks[r], des.RankClocks[r])
		}
		if math.Abs(live.CommMS[r]-des.CommMS[r]) > 1e-9 {
			t.Errorf("rank %d comm differs: live %g vs des %g", r, live.CommMS[r], des.CommMS[r])
		}
	}
	if live.Messages != des.Messages || live.BytesMoved != des.BytesMoved {
		t.Errorf("message counts differ: live %d/%d vs des %d/%d",
			live.Messages, live.BytesMoved, des.Messages, des.BytesMoved)
	}
}

func TestContentionSlowsConcurrentTransfers(t *testing.T) {
	// All ranks send large payloads to rank 0 at the same instant.
	cl := testCluster(t, 50, 50, 50, 50, 50)
	m := testModel(t)
	prog := func(c *Comm) error {
		if c.Rank() == 0 {
			for r := 1; r < c.Size(); r++ {
				c.Recv(r, 0)
			}
			return nil
		}
		c.Send(0, 0, make([]float64, 50000))
		return nil
	}
	free, err := Run(context.Background(), cl, m, Options{Engine: EngineDES}, prog)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := Run(context.Background(), cl, m, Options{Engine: EngineDES, Network: simnet.WireShared}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if busy.TimeMS <= free.TimeMS*1.5 {
		t.Errorf("contended %g should be much slower than free %g", busy.TimeMS, free.TimeMS)
	}
}

func TestProgramErrorPropagates(t *testing.T) {
	cl := testCluster(t, 50, 50, 50)
	m := testModel(t)
	boom := errors.New("boom")
	for _, e := range engines {
		_, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			if c.Rank() == 1 {
				return boom
			}
			// Other ranks wait for a message that never comes; the abort
			// (live) or deadlock detection (des) must unwind them.
			c.Recv(1, 9)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s: error = %v, want boom", e.name, err)
		}
	}
}

// TestFailedRunLeaksNoGoroutines runs programs whose ranks are left
// waiting on a failed peer, or on each other, on every engine, and
// requires every rank goroutine to be gone afterwards: a stranded rank
// unwinds as aborted, on DES once the kernel has reported the deadlock,
// instead of staying parked for good.
func TestFailedRunLeaksNoGoroutines(t *testing.T) {
	cl := testCluster(t, 50, 50, 50)
	m := testModel(t)
	boom := errors.New("boom")
	failed := func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		c.Recv(1, 9) // ranks 0 and 2 wait on the failed rank
		return nil
	}
	deadlocked := func(c *Comm) error {
		c.Recv((c.Rank()+1)%c.Size(), 1) // every rank waits on the next
		return nil
	}
	for _, e := range engines {
		before := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			_, err := Run(context.Background(), cl, m, e.opts, failed)
			if !errors.Is(err, boom) {
				t.Fatalf("%s: error = %v, want boom", e.name, err)
			}
			if got := strings.Count(err.Error(), errAborted.Error()); got != 2 {
				t.Errorf("%s: %d ranks aborted, want 2: %v", e.name, got, err)
			}
			if e.opts.Engine == EngineDES && !errors.Is(err, des.ErrDeadlock) {
				t.Errorf("%s: error = %v, want the kernel's deadlock report too", e.name, err)
			}
			if e.opts.Engine == EngineLive {
				continue // a deadlocked program hangs the live engine
			}
			if _, err := Run(context.Background(), cl, m, e.opts, deadlocked); err == nil || !strings.Contains(err.Error(), "deadlock") {
				t.Errorf("%s: deadlocked program: error = %v, want a deadlock report", e.name, err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine() - before; n > 0 {
			t.Errorf("%s: %d goroutines left behind", e.name, n)
		}
	}
}

func TestPanicBecomesError(t *testing.T) {
	cl := testCluster(t, 50, 50)
	m := testModel(t)
	for _, e := range engines {
		_, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			if c.Rank() == 0 {
				panic("kapow")
			}
			c.Recv(0, 3)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "kapow") {
			t.Errorf("%s: error = %v, want kapow", e.name, err)
		}
	}
}

func TestTagMismatchReported(t *testing.T) {
	cl := testCluster(t, 50, 50)
	m := testModel(t)
	for _, e := range engines {
		_, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 5, []float64{1})
			} else {
				c.Recv(0, 6)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "tag mismatch") {
			t.Errorf("%s: error = %v, want tag mismatch", e.name, err)
		}
	}
}

func TestHeterogeneousComputeFavorsFastNode(t *testing.T) {
	cl := testCluster(t, 42.1, 89.5)
	m := testModel(t)
	res, err := Run(context.Background(), cl, m, Options{}, func(c *Comm) error {
		c.Compute(1e6)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.RankClocks[0] / res.RankClocks[1]
	want := 89.5 / 42.1
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("slowdown ratio %g, want %g", ratio, want)
	}
}

func TestMaxCommMS(t *testing.T) {
	r := Result{CommMS: []float64{1, 5, 3}}
	if r.MaxCommMS() != 5 {
		t.Errorf("MaxCommMS = %g", r.MaxCommMS())
	}
	if (Result{}).MaxCommMS() != 0 {
		t.Error("empty MaxCommMS != 0")
	}
}

func TestSingleRankWorld(t *testing.T) {
	cl := testCluster(t, 50)
	m := testModel(t)
	for _, e := range engines {
		res, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
			c.Compute(1000)
			c.Barrier()
			out := c.Bcast(0, []float64{7})
			if out[0] != 7 {
				return errors.New("bcast self failed")
			}
			if v := c.Allreduce(3, OpSum); v != 3 {
				return errors.New("allreduce self failed")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		// Barrier and bcast should be free at p=1; only compute counts,
		// plus the negligible Reduce fold (0 peers -> Compute(0)).
		if math.Abs(res.TimeMS-1000/(50*1e3)) > 1e-9 {
			t.Errorf("%s: TimeMS = %g", e.name, res.TimeMS)
		}
	}
}
