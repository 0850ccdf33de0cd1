// Package runner is the concurrent experiment-execution engine behind
// the experiments API: a bounded worker pool with deterministic result
// ordering, plus a content-addressed memo cache (cache.go) so sweeps
// that share run points compute them once. The cache's persistence is
// fixed when it is built — NewCache(disk) layers it over a DiskCache
// (disk.go) and bounds its memory, NewCache(nil) keeps everything in
// memory — and DoPersist is its one entry point.
//
// The pool preserves *serial semantics* while exploiting parallel
// hardware: tasks are claimed in submission order, results are returned
// in submission order, and the error reported for a failed batch is the
// error the serial execution would have hit first. Consumers that print
// results in order therefore produce byte-identical output for any
// worker count.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one unit of work: an identified closure executed by the pool.
type Task struct {
	// ID names the task in hooks and errors.
	ID string
	// Run does the work. It must honor ctx cancellation at whatever
	// granularity it can (the pool cancels ctx when any task fails).
	Run func(ctx context.Context) (any, error)
}

// Result is the outcome of one task.
type Result struct {
	ID      string
	Value   any
	Elapsed time.Duration
	Err     error
}

// Hooks receives per-task progress callbacks. Both callbacks may be
// invoked concurrently from multiple workers; nil callbacks are skipped.
type Hooks struct {
	// Started fires when a worker picks the task up.
	Started func(id string)
	// Finished fires when the task returns.
	Finished func(id string, elapsed time.Duration, err error)
}

// Progress returns hooks that narrate task starts and finishes on w
// (conventionally stderr, keeping stdout byte-identical across worker
// counts). A nil writer or verbose=false disables it.
func Progress(w io.Writer, verbose bool) Hooks {
	if w == nil || !verbose {
		return Hooks{}
	}
	var mu sync.Mutex
	return Hooks{
		Started: func(id string) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(w, "run  %s\n", id)
		},
		Finished: func(id string, elapsed time.Duration, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				fmt.Fprintf(w, "fail %s (%v): %v\n", id, elapsed.Round(time.Millisecond), err)
				return
			}
			fmt.Fprintf(w, "done %s (%v)\n", id, elapsed.Round(time.Millisecond))
		},
	}
}

// Options configures a pool run.
type Options struct {
	// Jobs bounds worker concurrency; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Hooks receives progress/timing callbacks.
	Hooks Hooks
	// Pool, when non-nil, additionally bounds execution by a shared
	// semaphore: concurrent Run batches (e.g. simultaneous server
	// requests) together never execute more than Pool.Size tasks at
	// once, while each batch keeps its own ordering guarantees.
	Pool *Pool
}

// Pool is a process-wide execution bound shared by any number of Run
// batches. Each task acquires a slot before executing, so a long-running
// service can cap total simulation concurrency no matter how many
// requests are in flight.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool with the given number of slots (<= 0 means
// runtime.GOMAXPROCS(0)).
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, size)}
}

// Size returns the slot count.
func (p *Pool) Size() int { return cap(p.sem) }

// InUse returns the number of occupied slots at this instant — a
// monitoring snapshot (the value may change before the caller reads it).
func (p *Pool) InUse() int { return len(p.sem) }

func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) release() { <-p.sem }

// Run executes tasks on a bounded worker pool and returns their results
// in submission order. On the first task failure the shared context is
// canceled: running tasks are asked to stop and unstarted tasks are
// skipped (their Result carries the cancellation error). The returned
// error is the lowest-index genuine failure — the one a serial execution
// would have reported — with cancellation casualties deprioritized.
func Run(ctx context.Context, tasks []Task, opts Options) ([]Result, error) {
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(tasks) {
		jobs = len(tasks)
	}
	results := make([]Result, len(tasks))
	if len(tasks) == 0 {
		return results, ctx.Err()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				if err := ctx.Err(); err != nil {
					results[i] = Result{ID: t.ID, Err: err}
					continue
				}
				if opts.Pool != nil {
					if err := opts.Pool.acquire(ctx); err != nil {
						results[i] = Result{ID: t.ID, Err: err}
						continue
					}
				}
				if opts.Hooks.Started != nil {
					opts.Hooks.Started(t.ID)
				}
				start := time.Now()
				v, err := t.Run(ctx)
				if opts.Pool != nil {
					opts.Pool.release()
				}
				elapsed := time.Since(start)
				results[i] = Result{ID: t.ID, Value: v, Elapsed: elapsed, Err: err}
				if opts.Hooks.Finished != nil {
					opts.Hooks.Finished(t.ID, elapsed, err)
				}
				if err != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	return results, firstError(results)
}

// firstError picks the error serial execution would have surfaced: the
// lowest-index failure that is not a cancellation casualty. If every
// failure is a cancellation (the parent context was canceled), the
// lowest-index one is returned.
func firstError(results []Result) error {
	var canceled error
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
			if canceled == nil {
				canceled = fmt.Errorf("%s: %w", r.ID, r.Err)
			}
			continue
		}
		return fmt.Errorf("%s: %w", r.ID, r.Err)
	}
	return canceled
}
