package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPreservesOrder(t *testing.T) {
	tasks := make([]Task, 20)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			ID: fmt.Sprintf("t%d", i),
			Run: func(ctx context.Context) (any, error) {
				// Finish in scrambled real-time order.
				time.Sleep(time.Duration((i*7)%5) * time.Millisecond)
				return i, nil
			},
		}
	}
	for _, jobs := range []int{1, 4, 32} {
		rs, err := Run(context.Background(), tasks, Options{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, r := range rs {
			if r.Value.(int) != i || r.ID != fmt.Sprintf("t%d", i) {
				t.Fatalf("jobs=%d: result %d = %+v", jobs, i, r)
			}
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const jobs = 3
	var cur, peak atomic.Int64
	tasks := make([]Task, 24)
	for i := range tasks {
		tasks[i] = Task{ID: fmt.Sprintf("t%d", i), Run: func(ctx context.Context) (any, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil, nil
		}}
	}
	if _, err := Run(context.Background(), tasks, Options{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Errorf("peak concurrency %d > %d", p, jobs)
	}
}

func TestPoolBoundsAcrossBatches(t *testing.T) {
	// Two concurrent Run batches, each with plenty of private workers,
	// together must never exceed the shared pool's slot count — the
	// server-mode cap on simultaneous requests.
	const slots = 2
	pool := NewPool(slots)
	var cur, peak atomic.Int64
	makeTasks := func(n int) []Task {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{ID: fmt.Sprintf("t%d", i), Run: func(ctx context.Context) (any, error) {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
				return nil, nil
			}}
		}
		return tasks
	}
	var wg sync.WaitGroup
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(context.Background(), makeTasks(12), Options{Jobs: 8, Pool: pool}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > slots {
		t.Errorf("peak concurrency %d > shared pool size %d", p, slots)
	}
	if pool.Size() != slots {
		t.Errorf("Size() = %d, want %d", pool.Size(), slots)
	}
}

func TestRunReportsSerialFirstError(t *testing.T) {
	boom := errors.New("boom")
	tasks := []Task{
		{ID: "ok", Run: func(ctx context.Context) (any, error) { return 1, nil }},
		{ID: "bad", Run: func(ctx context.Context) (any, error) { return nil, boom }},
		{ID: "later", Run: func(ctx context.Context) (any, error) {
			// Cancellation casualty: must not mask the genuine failure.
			<-ctx.Done()
			return nil, ctx.Err()
		}},
	}
	for _, jobs := range []int{1, 3} {
		_, err := Run(context.Background(), tasks, Options{Jobs: jobs})
		if !errors.Is(err, boom) {
			t.Errorf("jobs=%d: err = %v, want %v", jobs, err, boom)
		}
		if err == nil || err.Error() != "bad: boom" {
			t.Errorf("jobs=%d: err = %v, want bad: boom", jobs, err)
		}
	}
}

func TestRunFailFastSkipsPending(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	tasks := []Task{
		{ID: "bad", Run: func(ctx context.Context) (any, error) { return nil, boom }},
		{ID: "pending", Run: func(ctx context.Context) (any, error) { ran.Add(1); return nil, nil }},
	}
	rs, err := Run(context.Background(), tasks, Options{Jobs: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 0 {
		t.Error("pending task ran after failure")
	}
	if !errors.Is(rs[1].Err, context.Canceled) {
		t.Errorf("pending result err = %v, want canceled", rs[1].Err)
	}
}

func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := []Task{{ID: "t", Run: func(ctx context.Context) (any, error) { return nil, ctx.Err() }}}
	_, err := Run(ctx, tasks, Options{Jobs: 1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want canceled", err)
	}
}

func TestRunHooks(t *testing.T) {
	var mu sync.Mutex
	started := map[string]bool{}
	finished := map[string]time.Duration{}
	tasks := []Task{
		{ID: "a", Run: func(ctx context.Context) (any, error) { return nil, nil }},
		{ID: "b", Run: func(ctx context.Context) (any, error) { return nil, nil }},
	}
	_, err := Run(context.Background(), tasks, Options{Jobs: 2, Hooks: Hooks{
		Started: func(id string) { mu.Lock(); started[id] = true; mu.Unlock() },
		Finished: func(id string, elapsed time.Duration, err error) {
			mu.Lock()
			finished[id] = elapsed
			mu.Unlock()
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if !started[id] {
			t.Errorf("%s not started", id)
		}
		if _, ok := finished[id]; !ok {
			t.Errorf("%s not finished", id)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	rs, err := Run(context.Background(), nil, Options{})
	if err != nil || len(rs) != 0 {
		t.Fatalf("empty run: %v %v", rs, err)
	}
}

// TestRunOverlapsWallClock pins the point of the pool: four tasks of
// ~40 ms each finish in well under the 160 ms a serial execution needs.
// Sleeps overlap even on a single CPU, so this holds on any machine; for
// CPU-bound experiment batches the same overlap yields the multi-core
// wall-clock win.
func TestRunOverlapsWallClock(t *testing.T) {
	const d = 40 * time.Millisecond
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{
			ID: fmt.Sprintf("t%d", i),
			Run: func(ctx context.Context) (any, error) {
				time.Sleep(d)
				return nil, nil
			},
		}
	}
	start := time.Now()
	if _, err := Run(context.Background(), tasks, Options{Jobs: 4}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Serial would be 4·d; demand well under 3·d (>25% reduction) while
	// leaving slack for slow CI schedulers.
	if elapsed >= 3*d {
		t.Errorf("4 workers took %v for 4×%v of sleep; want < %v", elapsed, d, 3*d)
	}
}

func TestProgress(t *testing.T) {
	var b strings.Builder
	h := Progress(&b, true)
	h.Started("table1")
	h.Finished("table1", 1500*time.Millisecond, nil)
	h.Finished("table2", time.Second, errors.New("boom"))
	out := b.String()
	for _, frag := range []string{"run  table1", "done table1 (1.5s)", "fail table2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("progress output missing %q:\n%s", frag, out)
		}
	}
	quiet := Progress(&b, false)
	if quiet.Started != nil || quiet.Finished != nil {
		t.Error("non-verbose progress should be empty hooks")
	}
	if nilw := Progress(nil, true); nilw.Started != nil {
		t.Error("nil writer should disable hooks")
	}
}
