package mpi

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestTracingRecordsTimeline(t *testing.T) {
	cl := testCluster(t, 50, 50, 50)
	m := testModel(t)
	for _, e := range engines {
		tr := trace.New()
		opts := e.opts
		opts.Trace = tr
		res, err := Run(context.Background(), cl, m, opts, func(c *Comm) error {
			c.Compute(50000)
			data := c.Bcast(1, []float64{1, 2, 3})
			_ = data
			if c.Rank() == 0 {
				c.Send(2, 5, []float64{4})
			} else if c.Rank() == 2 {
				c.Recv(0, 5)
			}
			c.Barrier()
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		spans := tr.Spans()
		if len(spans) == 0 {
			t.Fatalf("%s: no spans recorded", e.name)
		}
		// Per-rank compute in the trace equals the Result accounting.
		bds := tr.Breakdowns()
		if len(bds) != 3 {
			t.Fatalf("%s: breakdowns %v", e.name, bds)
		}
		for _, b := range bds {
			if math.Abs(b.ComputeMS-res.ComputeMS[b.Rank]) > 1e-9 {
				t.Errorf("%s: rank %d trace compute %g vs result %g",
					e.name, b.Rank, b.ComputeMS, res.ComputeMS[b.Rank])
			}
			if b.EndMS > res.TimeMS+1e-9 {
				t.Errorf("%s: rank %d trace end %g beyond makespan %g",
					e.name, b.Rank, b.EndMS, res.TimeMS)
			}
		}
		if math.Abs(tr.Makespan()-res.TimeMS) > 1e-9 {
			t.Errorf("%s: trace makespan %g vs result %g", e.name, tr.Makespan(), res.TimeMS)
		}
		// Kinds present: compute everywhere, bcast at root, wait at peers,
		// send/recv for the point-to-point, barrier for everyone.
		kinds := map[trace.Kind]int{}
		for _, s := range spans {
			kinds[s.Kind]++
		}
		for _, k := range []trace.Kind{trace.KindCompute, trace.KindBcast, trace.KindWait, trace.KindSend, trace.KindRecv, trace.KindBarrier} {
			if kinds[k] == 0 {
				t.Errorf("%s: no %v spans", e.name, k)
			}
		}
		// Renderable.
		if g := tr.Gantt(60); !strings.Contains(g, "rank  0") {
			t.Errorf("%s: Gantt failed:\n%s", e.name, g)
		}
	}
}

func TestTracingDeterministicAcrossRuns(t *testing.T) {
	cl := testCluster(t, 40, 80)
	m := testModel(t)
	prog := func(c *Comm) error {
		for i := 0; i < 4; i++ {
			c.Compute(10000)
			c.Bcast(0, []float64{float64(i)})
			c.Barrier()
		}
		return nil
	}
	var first []trace.Span
	for iter := 0; iter < 5; iter++ {
		tr := trace.New()
		if _, err := Run(context.Background(), cl, m, Options{Trace: tr}, prog); err != nil {
			t.Fatal(err)
		}
		spans := tr.Spans()
		if iter == 0 {
			first = spans
			continue
		}
		if len(spans) != len(first) {
			t.Fatalf("span count differs: %d vs %d", len(spans), len(first))
		}
		for i := range spans {
			if spans[i] != first[i] {
				t.Fatalf("span %d differs: %+v vs %+v", i, spans[i], first[i])
			}
		}
	}
}

// TestTraceIdenticalAcrossEngines is the trace-level differential test:
// because spans are emitted only by the shared runtime, the live and
// DES transports must record the *same span sequence* — and therefore
// serialize to byte-identical Chrome trace JSON.
func TestTraceIdenticalAcrossEngines(t *testing.T) {
	cl := testCluster(t, 40, 80, 60, 50)
	m := testModel(t)
	prog := func(c *Comm) error {
		c.Compute(3e5)
		c.Bcast(1, []float64{1, 2, 3})
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		c.ISend(next, 7, []float64{float64(c.Rank())})
		c.Recv(prev, 7)
		c.Barrier()
		c.Gatherv(0, []float64{float64(c.Rank()), 1})
		c.Allreduce(float64(c.Rank()), OpSum)
		return nil
	}
	run := func(opts Options) (*trace.Trace, []byte) {
		tr := trace.New()
		opts.Trace = tr
		if _, err := Run(context.Background(), cl, m, opts, prog); err != nil {
			t.Fatalf("%v: %v", opts.Engine, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return tr, buf.Bytes()
	}
	liveTr, liveJSON := run(Options{Engine: EngineLive})
	desTr, desJSON := run(Options{Engine: EngineDES})

	ls, ds := liveTr.Spans(), desTr.Spans()
	if len(ls) != len(ds) {
		t.Fatalf("span counts differ: live %d vs des %d", len(ls), len(ds))
	}
	for i := range ls {
		if ls[i] != ds[i] {
			t.Fatalf("span %d differs: live %+v vs des %+v", i, ls[i], ds[i])
		}
	}
	if !bytes.Equal(liveJSON, desJSON) {
		t.Errorf("Chrome trace JSON differs across engines:\nlive: %s\ndes:  %s", liveJSON, desJSON)
	}
}
