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
)

// Tests specific to the live transport's mailboxes: unbounded streams,
// per-run construction cost, and Abort unwinding ranks blocked in each
// kind of wait. The engine-matrix tests in mpi_test.go and the
// differential suite already exercise it alongside the other engines.

func TestLiveSendBurstMatchesOtherEngines(t *testing.T) {
	// Each of two ranks sends burst one-word messages to the other before
	// receiving any, so every stream holds burst messages at once. No
	// engine may block a sender on that, and all three must agree on the
	// virtual result and deliver every stream in order.
	const burst = 2000
	cl := testCluster(t, 37.2, 89.5)
	m := testModel(t)
	prog := func(c *Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < burst; i++ {
			c.Send(peer, 0, []float64{float64(i)})
		}
		for i := 0; i < burst; i++ {
			if got := c.Recv(peer, 0); got[0] != float64(i) {
				return fmt.Errorf("message %d from rank %d carried %v", i, peer, got[0])
			}
		}
		return nil
	}

	type outcome struct {
		results []Result
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		for _, eng := range diffEngines {
			res, err := Run(context.Background(), cl, m, Options{Engine: eng}, prog)
			if err != nil {
				o.err = fmt.Errorf("%v: %w", eng, err)
				break
			}
			o.results = append(o.results, res)
		}
		done <- o
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("send burst did not finish within 10s: an engine blocks senders on a bounded stream")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := o.results[0].Messages; got != 2*burst {
		t.Errorf("messages = %d, want %d", got, 2*burst)
	}
	for i := 1; i < len(o.results); i++ {
		requireBitIdentical(t, "send burst", o.results[0], o.results[i], diffEngines[0], diffEngines[i])
	}
}

func TestLiveRunAllocation(t *testing.T) {
	// A live run's set-up is one mailbox per rank with a FIFO header per
	// source: O(p²) small headers, no per-pair message buffers. Four
	// barriers at p = 64 must stay well under 2 MiB per run.
	const p, limit = 64, 2 << 20
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 40 + float64(i%5)*10
	}
	cl := testCluster(t, speeds...)
	m := testModel(t)
	prog := func(c *Comm) error {
		for i := 0; i < 4; i++ {
			c.Barrier()
		}
		return nil
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(context.Background(), cl, m, Options{Engine: EngineLive}, prog); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm-up
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		best = min(best, run())
	}
	if best >= limit {
		t.Errorf("live run at p = %d allocated %d bytes, want < %d", p, best, limit)
	}
}

func TestLiveAbortUnwindsBlockedRanks(t *testing.T) {
	// One rank fails while its peers are blocked in every way a live rank
	// can block: Take on a silent peer, Take on the failing rank, and Park
	// at a barrier the failing rank never reaches. Abort must wake and
	// unwind all of them. Repeated because the failure races the peers'
	// arrival at their waits.
	cl := testCluster(t, 50, 50, 50, 50, 50)
	m := testModel(t)
	boom := errors.New("boom")
	for i := 0; i < 50; i++ {
		_, err := Run(context.Background(), cl, m, Options{Engine: EngineLive}, func(c *Comm) error {
			switch c.Rank() {
			case 0:
				return boom
			case 1:
				c.Recv(2, 1) // rank 2 never sends
			case 2:
				c.Recv(0, 1)
			default:
				c.Barrier()
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("iteration %d: error = %v, want boom", i, err)
		}
		if got := strings.Count(err.Error(), errAborted.Error()); got != 4 {
			t.Fatalf("iteration %d: %d ranks aborted, want 4: %v", i, got, err)
		}
	}
}
