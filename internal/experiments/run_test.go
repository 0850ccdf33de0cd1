package experiments

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/trace"
)

// renderAll renders outcomes to one string through the text renderer —
// the exact bytes hetsim would print.
func renderAll(t *testing.T, outcomes []Outcome) string {
	t.Helper()
	r, err := NewRenderer("text")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.Render(&b, Flatten(outcomes)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRunSelectedParallelMatchesSerial is the central determinism
// contract: the same experiment batch renders byte-identically at Jobs=1
// and Jobs=4, on both engines. The batch deliberately mixes chain-sharing
// experiments (table2/3/4 all consume the GE chain) so the memo cache's
// single-flight path is exercised, and fresh suites are used per worker
// count so nothing leaks between the runs. Run with -race this doubles as
// the concurrency-safety test for Suite.
func TestRunSelectedParallelMatchesSerial(t *testing.T) {
	ids := []string{"table1", "table2", "table3", "table4", "table5", "fig1", "ablate-tiling"}
	for _, engine := range []mpi.Engine{mpi.EngineLive, mpi.EngineDES} {
		render := func(jobs int) string {
			cfg := Quick()
			cfg.Engine = engine
			s, err := NewSuite(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			outcomes, err := RunSelected(context.Background(), s, ids, runner.Options{Jobs: jobs})
			if err != nil {
				t.Fatalf("engine %s jobs %d: %v", engine, jobs, err)
			}
			if len(outcomes) != len(ids) {
				t.Fatalf("engine %s jobs %d: %d outcomes, want %d", engine, jobs, len(outcomes), len(ids))
			}
			for i, o := range outcomes {
				if o.ID != ids[i] {
					t.Fatalf("outcome %d is %s, want %s (order not preserved)", i, o.ID, ids[i])
				}
			}
			return renderAll(t, outcomes)
		}
		serial := render(1)
		parallel := render(4)
		if serial != parallel {
			t.Errorf("engine %s: parallel output differs from serial", engine)
		}
	}
}

// TestCacheSharesChainAcrossExperiments is the cache-accounting
// contract: fig1 and table3 both need the measured GE chain, so running
// them in one batch computes the chain once and records at least one
// cache hit — however the scheduler interleaves them.
func TestCacheSharesChainAcrossExperiments(t *testing.T) {
	s, cache := cachedQuickSuite(t)
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("fresh suite has stats %+v", st)
	}
	if _, err := RunSelected(context.Background(), s, []string{"fig1", "table3"}, runner.Options{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits < 1 {
		t.Errorf("fig1+table3 share the GE chain, want >= 1 cache hit, got %+v", st)
	}
	if st.Misses < 1 {
		t.Errorf("someone must have computed the chain: %+v", st)
	}
	if !strings.Contains(st.String(), "hits") {
		t.Errorf("Stats.String() = %q", st.String())
	}
}

// Repeating an experiment on the same suite is all hits, no new misses.
func TestCacheRepeatIsAllHits(t *testing.T) {
	s, cache := cachedQuickSuite(t)
	if _, err := RunSelected(context.Background(), s, []string{"table4"}, runner.Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	first := cache.Stats()
	if _, err := RunSelected(context.Background(), s, []string{"table4"}, runner.Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	second := cache.Stats()
	if second.Misses != first.Misses {
		t.Errorf("rerun recomputed: misses %d -> %d", first.Misses, second.Misses)
	}
	if second.Hits <= first.Hits {
		t.Errorf("rerun did not hit the cache: hits %d -> %d", first.Hits, second.Hits)
	}
}

// cachedQuickSuite returns a quick suite together with its memo cache,
// whose counters the cache tests read.
func cachedQuickSuite(t *testing.T) (*Suite, *runner.Cache) {
	t.Helper()
	cache := runner.NewCache(nil)
	s, err := NewSuite(Quick(), cache)
	if err != nil {
		t.Fatal(err)
	}
	return s, cache
}

// TestTracedSuiteTakesPrivateCache checks NewSuite's tracing rule: a
// traced suite never reads the cache it is handed, since a hit would run
// nothing and record no spans.
func TestTracedSuiteTakesPrivateCache(t *testing.T) {
	s, cache := cachedQuickSuite(t)
	ids := []string{"table2"}
	if _, err := RunSelected(context.Background(), s, ids, runner.Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	cfg := Quick()
	cfg.Trace = trace.New()
	traced, err := NewSuite(cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSelected(context.Background(), traced, ids, runner.Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	if after := cache.Stats(); after != before {
		t.Errorf("traced suite touched the shared cache: %+v -> %+v", before, after)
	}
	if len(cfg.Trace.Spans()) == 0 {
		t.Error("traced suite recorded no spans")
	}
}

// TestTracedAblationsRecordSpans checks that the two ablations that
// build their own DES options still record into the suite's trace.
func TestTracedAblationsRecordSpans(t *testing.T) {
	for _, id := range []string{"ablate-contention", "ablate-network"} {
		t.Run(id, func(t *testing.T) {
			cfg := Quick()
			cfg.Trace = trace.New()
			s, err := NewSuite(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunSelected(context.Background(), s, []string{id}, runner.Options{Jobs: 1}); err != nil {
				t.Fatal(err)
			}
			if len(cfg.Trace.Spans()) == 0 {
				t.Error("traced ablation recorded no spans")
			}
		})
	}
}

func TestRunSelectedUnknownID(t *testing.T) {
	s := quickSuite(t)
	if _, err := RunSelected(context.Background(), s, []string{"table1", "nope"}, runner.Options{}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestRunSelectedHonorsCancellation(t *testing.T) {
	s := quickSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSelected(ctx, s, []string{"table2"}, runner.Options{Jobs: 1}); err == nil {
		t.Error("canceled context accepted")
	}
}

func TestRunSelectedHooksFire(t *testing.T) {
	s := quickSuite(t)
	var started, finished atomic.Int32
	opts := runner.Options{Jobs: 2}
	opts.Hooks.Started = func(id string) { started.Add(1) }
	opts.Hooks.Finished = func(id string, _ time.Duration, err error) {
		if err != nil {
			t.Errorf("%s failed: %v", id, err)
		}
		finished.Add(1)
	}
	outcomes, err := RunSelected(context.Background(), s, []string{"table1", "ablate-tiling"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() != 2 || finished.Load() != 2 {
		t.Errorf("hooks fired started=%d finished=%d, want 2/2", started.Load(), finished.Load())
	}
	for _, o := range outcomes {
		if o.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v not positive", o.ID, o.Elapsed)
		}
	}
}

func TestFlattenPreservesOrder(t *testing.T) {
	s := quickSuite(t)
	outcomes, err := RunSelected(context.Background(), s, []string{"table1", "ablate-tiling"}, runner.Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs := Flatten(outcomes)
	if len(rs) != 2 {
		t.Fatalf("flattened %d renderables, want 2", len(rs))
	}
	if !strings.Contains(rs[0].String(), "Marked speed") || !strings.Contains(rs[1].String(), "tiling") {
		t.Error("flatten order wrong")
	}
}
