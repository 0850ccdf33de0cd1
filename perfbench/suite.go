package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/spec"
)

// digests are the SHA-256 of the rendered bytes: suite-quick's at every
// seed, jobstream-1k's at the default seed. They change only when a change
// deliberately alters an output.
var digests = map[string]string{
	"suite-quick":  "b89361abcbc3ab87122ffb3d71f642a0c16628d69e6ba61ae8e079e1ffb7e1b8",
	"jobstream-1k": "fe415640b53c14b3a3ab7fe56d6c36539b07dda2fe92590dfe9b8f3963788786",
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest compares output against the committed digest of a workload.
func checkDigest(workload string, out []byte) error {
	if got := sha(out); got != digests[workload] {
		return fmt.Errorf("%s output digest %s, want %s", workload, got, digests[workload])
	}
	return nil
}

// outputs checks every output of one measurement: the first against
// checkFirst, each later one against the first byte for byte.
type outputs struct {
	e          *env
	first      []byte
	checkFirst func([]byte) error
}

func (o *outputs) check(what string, out []byte, err error) {
	switch {
	case err != nil:
		o.e.outcome(fmt.Errorf("%s: %w", what, err))
	case o.first == nil:
		o.first = out
		o.e.outcome(o.checkFirst(out))
	case !bytes.Equal(o.first, out):
		o.e.outcome(fmt.Errorf("%s: %d bytes differ from the first %d-byte output", what, len(out), len(o.first)))
	default:
		o.e.outcome(nil)
	}
}

// expHooks times each experiment task of a pass through runner.Hooks,
// giving each concurrent task its own trace lane.
type expHooks struct {
	e      *env
	op     int
	parent int
	record atomic.Bool

	mu     sync.Mutex
	starts map[string]time.Time
	lanes  map[string]int
	busy   map[int]bool
	times  map[string]time.Duration
}

func newExpHooks(e *env) *expHooks {
	return &expHooks{e: e, starts: map[string]time.Time{}, lanes: map[string]int{}, busy: map[int]bool{}, times: map[string]time.Duration{}}
}

func (h *expHooks) hooks() runner.Hooks {
	return runner.Hooks{
		Started: func(id string) {
			if !h.record.Load() {
				return
			}
			h.mu.Lock()
			defer h.mu.Unlock()
			lane := 1
			for h.busy[lane] {
				lane++
			}
			h.busy[lane] = true
			h.lanes[id] = lane
			h.starts[id] = time.Now()
		},
		Finished: func(id string, elapsed time.Duration, err error) {
			if !h.record.Load() {
				return
			}
			h.mu.Lock()
			defer h.mu.Unlock()
			lane := h.lanes[id]
			delete(h.busy, lane)
			h.times[id] = elapsed
			h.e.tr.record(h.parent, h.op, lane, "experiments", id, h.starts[id], elapsed)
		},
	}
}

// runSpec runs rs on ex inside a "spec" span and returns the output and
// latency.
func runSpec(e *env, ex *spec.Executor, rs spec.RunSpec, parent, op, tid int, name string) ([]byte, time.Duration, error) {
	var out bytes.Buffer
	id := e.tr.begin(parent, op, tid, "spec", name)
	start := time.Now()
	err := ex.Run(context.Background(), rs, &out)
	d := time.Since(start)
	e.tr.end(id)
	return out.Bytes(), d, err
}

// Cache-hit samples: memory hits after each cold operation, disk hits
// after each jobstream-1k run, and suite-quick disk hits after its timed
// phase. Sub-millisecond latencies drift with the host, so each is sampled
// many times across the run.
const (
	hitRepeats     = 20
	diskHitRepeats = 40
	suiteDiskHits  = 150
)

// measureSuite is suite-quick: cold passes of the quick reproduction, each
// through a fresh executor with two workers and no cache directory. After
// each pass the same spec is served again from the warm executor (memory
// hits); after the timed phase one pass populates a cache directory and
// fresh executors on it serve the spec from disk.
func measureSuite(e *env) error {
	rs := suiteSpec()
	body, err := json.Marshal(rs)
	if err != nil {
		return err
	}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if _, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 2}); err != nil {
			return err
		}
		if _, err := spec.Decode(bytes.NewReader(body)); err != nil {
			return err
		}
		e.setup = append(e.setup, time.Since(start).Seconds())
	}
	nExp := len(experiments.IDs())

	outs := &outputs{e: e, checkFirst: func(out []byte) error { return checkDigest("suite-quick", out) }}
	check := outs.check
	if err := e.beginTimed(); err != nil {
		return err
	}
	ops := 0
	for ops == 0 || time.Now().Before(e.deadline()) {
		op := e.tr.newOp()
		root := e.tr.begin(0, op, 0, "op", "suite-quick pass")
		h := newExpHooks(e)
		ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 2, Hooks: h.hooks()})
		if err != nil {
			return err
		}
		h.op = op
		h.parent = e.tr.begin(root, op, 0, "spec", "Executor.Run cold")
		h.record.Store(true)
		start := time.Now()
		var out bytes.Buffer
		err = ex.Run(context.Background(), rs, &out)
		d := time.Since(start)
		h.record.Store(false)
		e.tr.end(h.parent)
		e.opWall = append(e.opWall, d.Seconds())
		e.add(&e.miss, d)
		for _, t := range h.times {
			e.add(&e.req, t)
		}
		check("cold pass", out.Bytes(), err)
		settle()
		for k := 0; k < hitRepeats; k++ {
			out, d, err := runSpec(e, ex, rs, root, op, 0, "Executor.Run warm")
			e.add(&e.hit, d)
			check("memory hit", out, err)
		}
		e.tr.end(root)
		ops++
	}
	e.endTimed(float64(ops), float64(ops*nExp))

	// Disk hits: one pass fills a cache directory; each fresh executor on
	// it then restores every experiment without running one.
	dir := filepath.Join(e.dir, "suite-cache")
	ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 2, CacheDir: dir})
	if err != nil {
		return err
	}
	var out bytes.Buffer
	err = ex.Run(context.Background(), rs, &out)
	check("cache fill", out.Bytes(), err)
	settle()
	for k := 0; k < suiteDiskHits; k++ {
		op := e.tr.newOp()
		start := time.Now()
		ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 2, CacheDir: dir})
		if err != nil {
			return err
		}
		out, _, err := runSpec(e, ex, rs, 0, op, 0, "Executor.Run disk")
		e.add(&e.diskHit, time.Since(start))
		if err == nil && ex.CacheStats().DiskMisses != 0 {
			err = fmt.Errorf("warm cache directory recomputed %d entries", ex.CacheStats().DiskMisses)
		}
		check("disk hit", out, err)
	}
	return nil
}
