package spec

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/job"
)

func quickSpec() RunSpec {
	return RunSpec{Kind: KindExperiments, Experiments: "quick", Quick: true}
}

func runSpec(t *testing.T, ex *Executor, rs RunSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ex.Run(context.Background(), rs, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newExecutor(t *testing.T, opts ExecutorOptions) *Executor {
	t.Helper()
	ex, err := NewExecutor(opts)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestExperimentsRestartServesFromDisk is the acceptance criterion for
// the persistent cache: a cold process pointed at a warm cache
// directory serves the full quick suite byte-identically with zero
// recomputed runs.
func TestExperimentsRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	warm := runSpec(t, newExecutor(t, ExecutorOptions{Jobs: 4, CacheDir: dir}), quickSpec())
	if len(warm) == 0 {
		t.Fatal("empty quick-suite output")
	}

	cold := newExecutor(t, ExecutorOptions{Jobs: 4, CacheDir: dir})
	restored := runSpec(t, cold, quickSpec())
	if !bytes.Equal(warm, restored) {
		t.Errorf("restart output differs:\nwarm %d bytes\ncold %d bytes", len(warm), len(restored))
	}
	st := cold.CacheStats()
	if st.DiskHits == 0 {
		t.Errorf("cold process reported no disk hits: %+v", st)
	}
	if st.DiskMisses != 0 {
		t.Errorf("cold process recomputed %d results: %+v", st.DiskMisses, st)
	}
}

func TestExperimentsWarmSuiteSharedAcrossRuns(t *testing.T) {
	ex := newExecutor(t, ExecutorOptions{Jobs: 4})
	first := runSpec(t, ex, quickSpec())
	misses := ex.CacheStats().Misses
	// The same spec again — and a different format of it — must reuse the
	// executor's warm cache: no new computations, only hits.
	second := runSpec(t, ex, quickSpec())
	if !bytes.Equal(first, second) {
		t.Error("repeat run output differs")
	}
	csvSpec := quickSpec()
	csvSpec.Format = "csv"
	if out := runSpec(t, ex, csvSpec); !bytes.Contains(out, []byte(",")) {
		t.Error("csv output has no commas")
	}
	st := ex.CacheStats()
	if st.Misses != misses {
		t.Errorf("warm cache recomputed: misses %d -> %d", misses, st.Misses)
	}
	if st.Hits == 0 {
		t.Errorf("no cache hits on repeat runs: %+v", st)
	}
}

func testLadder(t *testing.T) *cluster.LadderSpec {
	t.Helper()
	var ladder cluster.LadderSpec
	const doc = `{"ladder": [
		{"name": "C2", "nodes": [
			{"name": "n0", "class": "fast", "speedMflops": 90, "memMB": 2048},
			{"name": "n1", "class": "slow", "speedMflops": 40, "memMB": 512}]},
		{"name": "C4", "nodes": [
			{"name": "n0", "class": "fast", "speedMflops": 90, "memMB": 2048},
			{"name": "n1", "class": "fast", "speedMflops": 90, "memMB": 2048},
			{"name": "n2", "class": "slow", "speedMflops": 40, "memMB": 512},
			{"name": "n3", "class": "slow", "speedMflops": 40, "memMB": 512}]}
	]}`
	if err := json.Unmarshal([]byte(doc), &ladder); err != nil {
		t.Fatal(err)
	}
	return &ladder
}

func TestScalescanRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	rs := RunSpec{Kind: KindScalescan, Workload: "ge", Ladder: testLadder(t)}
	warm := runSpec(t, newExecutor(t, ExecutorOptions{Jobs: 2, CacheDir: dir}), rs)

	cold := newExecutor(t, ExecutorOptions{Jobs: 2, CacheDir: dir})
	restored := runSpec(t, cold, rs)
	if !bytes.Equal(warm, restored) {
		t.Error("restart scalescan output differs")
	}
	st := cold.CacheStats()
	if st.DiskHits != 2 || st.DiskMisses != 0 {
		t.Errorf("cold scan: want 2 disk hits (one per rung), 0 misses; got %+v", st)
	}
	if !strings.Contains(string(warm), "Scalability chain") {
		t.Errorf("output missing chain table:\n%s", warm)
	}
}

func TestScalescanRungsSharedAcrossTargetsNot(t *testing.T) {
	// Different targets are different measurements: no cross-talk.
	ex := newExecutor(t, ExecutorOptions{Jobs: 2})
	a := RunSpec{Kind: KindScalescan, Workload: "ge", Target: 0.3, Ladder: testLadder(t)}
	b := RunSpec{Kind: KindScalescan, Workload: "ge", Target: 0.4, Ladder: testLadder(t)}
	if bytes.Equal(runSpec(t, ex, a), runSpec(t, ex, b)) {
		t.Error("different targets produced identical scans")
	}
}

func TestFaultscanRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	rs := RunSpec{
		Kind: KindFaultscan, Workload: "ge", P: 4, N: 100,
		Faults: &faults.Spec{Seed: 1, StragglerFrac: 0.5, StragglerFactor: 2},
	}
	warm := runSpec(t, newExecutor(t, ExecutorOptions{CacheDir: dir}), rs)

	cold := newExecutor(t, ExecutorOptions{CacheDir: dir})
	restored := runSpec(t, cold, rs)
	if !bytes.Equal(warm, restored) {
		t.Error("restart faultscan output differs")
	}
	st := cold.CacheStats()
	if st.DiskHits != 1 || st.DiskMisses != 0 {
		t.Errorf("cold faultscan: want 1 disk hit, 0 misses; got %+v", st)
	}
}

func TestJobstreamRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	rs := RunSpec{Kind: KindJobstream, Engine: "des"}
	warm := runSpec(t, newExecutor(t, ExecutorOptions{CacheDir: dir}), rs)
	if !strings.Contains(string(warm), "atlas") || !strings.Contains(string(warm), "Retention") {
		t.Fatalf("jobstream output missing tenants/retention:\n%s", warm)
	}

	cold := newExecutor(t, ExecutorOptions{CacheDir: dir})
	restored := runSpec(t, cold, rs)
	if !bytes.Equal(warm, restored) {
		t.Error("restart jobstream output differs")
	}
	st := cold.CacheStats()
	if st.DiskHits != 1 || st.DiskMisses != 0 {
		t.Errorf("cold jobstream: want 1 disk hit, 0 misses; got %+v", st)
	}
}

// TestJobstreamByteIdenticalAcrossEngines is the acceptance criterion
// for the multi-tenant refactor: the engines are bit-identical in
// virtual time, so the rendered jobstream output — waits, responses,
// efficiencies, retentions — must be byte-identical too (only the
// engine's own name would differ, and the jobstream tables don't print
// it).
func TestJobstreamByteIdenticalAcrossEngines(t *testing.T) {
	ex := newExecutor(t, ExecutorOptions{})
	base := runSpec(t, ex, RunSpec{Kind: KindJobstream, Engine: "des"})
	for _, eng := range []string{"live", "symbolic"} {
		got := runSpec(t, ex, RunSpec{Kind: KindJobstream, Engine: eng})
		if !bytes.Equal(base, got) {
			t.Errorf("engine %s output differs from des", eng)
		}
	}
	// And reruns are pure cache hits of the same bytes.
	if again := runSpec(t, ex, RunSpec{Kind: KindJobstream, Engine: "des"}); !bytes.Equal(base, again) {
		t.Error("jobstream rerun differs")
	}
}

// TestJobstreamElasticByteIdenticalAcrossEngines extends the jobstream
// acceptance criterion to the elastic dispatch: a spec with membership
// and autoscale sections renders the autoscaler-vs-fixed comparison,
// byte-identical across every engine and on rerun.
func TestJobstreamElasticByteIdenticalAcrossEngines(t *testing.T) {
	elastic := func(engine string) RunSpec {
		return RunSpec{Kind: KindJobstream, Engine: engine,
			Membership: &cluster.MembershipPlan{Events: []cluster.MemberEvent{
				{Node: 0, AtMS: 250, Op: cluster.OpDrain},
				{Node: 0, AtMS: 900, Op: cluster.OpJoin},
			}},
			Autoscale: &job.AutoscaleSpec{TargetEs: 0.1, Band: 0.02, WindowMS: 200, MinP: 6, MaxP: 10, StartP: 8},
		}
	}
	ex := newExecutor(t, ExecutorOptions{})
	base := runSpec(t, ex, elastic("des"))
	if !strings.Contains(string(base), "Elastic") || !strings.Contains(string(base), "E_s held") {
		t.Fatalf("elastic output missing comparison tables:\n%s", base)
	}
	for _, eng := range []string{"live", "symbolic"} {
		if got := runSpec(t, ex, elastic(eng)); !bytes.Equal(base, got) {
			t.Errorf("engine %s elastic output differs from des", eng)
		}
	}
	if again := runSpec(t, ex, elastic("des")); !bytes.Equal(base, again) {
		t.Error("elastic rerun differs")
	}
}

// TestJobstreamComposedRendersBothStudies sets every jobstream section
// in one spec: it validates, renders the fault study followed by the
// elastic study, and stays byte-identical across engines.
func TestJobstreamComposedRendersBothStudies(t *testing.T) {
	composed := func(engine string) RunSpec {
		stream, autoscale := experiments.ElasticStream(), experiments.ElasticAutoscale()
		return RunSpec{Kind: KindJobstream, Engine: engine, Stream: &stream,
			NodeFaults: &cluster.HealthSpec{Seed: 5, Failures: 6, MeanUpMS: 300, MeanDownMS: 200},
			Admission:  &job.AdmissionSpec{MaxQueue: 4, MaxWaitMS: 3000},
			Membership: &cluster.MembershipPlan{Events: []cluster.MemberEvent{
				{Node: 0, AtMS: 250, Op: cluster.OpDrain},
				{Node: 0, AtMS: 900, Op: cluster.OpJoin},
			}},
			Autoscale: &autoscale,
		}
	}
	ex := newExecutor(t, ExecutorOptions{})
	base := runSpec(t, ex, composed("symbolic"))
	faults := bytes.Index(base, []byte("Job-stream faults:"))
	elastic := bytes.Index(base, []byte("Elastic:"))
	if faults < 0 || elastic < faults {
		t.Fatalf("composed output is not the fault study followed by the elastic study:\n%s", base)
	}
	for _, eng := range []string{"des", "live"} {
		if got := runSpec(t, ex, composed(eng)); !bytes.Equal(base, got) {
			t.Errorf("engine %s composed output differs from symbolic", eng)
		}
	}
}

func TestRunTraceBypassesPersistence(t *testing.T) {
	// A trace needs fresh executions: even on a warm cache directory the
	// traced run must record spans (a restored result would record none).
	dir := t.TempDir()
	rs := RunSpec{Kind: KindExperiments, Experiments: "table2", Quick: true}
	runSpec(t, newExecutor(t, ExecutorOptions{Jobs: 2, CacheDir: dir}), rs)

	ex := newExecutor(t, ExecutorOptions{Jobs: 2, CacheDir: dir})
	var out, tr bytes.Buffer
	if err := ex.RunTrace(context.Background(), rs, &out, &tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("traced run on a warm cache recorded no events")
	}
}

func TestRunTraceRejectsScanKinds(t *testing.T) {
	ex := newExecutor(t, ExecutorOptions{})
	rs := RunSpec{Kind: KindScalescan, AsymSizes: []int{4, 8}}
	var out, tr bytes.Buffer
	err := ex.RunTrace(context.Background(), rs, &out, &tr)
	if err == nil || !strings.Contains(err.Error(), "kind experiments") {
		t.Errorf("traced a scalescan: %v", err)
	}
}

func TestRunValidatesBeforeExecuting(t *testing.T) {
	ex := newExecutor(t, ExecutorOptions{})
	var buf bytes.Buffer
	err := ex.Run(context.Background(), RunSpec{Kind: KindExperiments, Experiments: "quick", GETarget: 7}, &buf)
	if err == nil || !strings.Contains(err.Error(), "out of (0,1)") {
		t.Errorf("invalid spec executed: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("invalid spec wrote %d bytes", buf.Len())
	}
}

// TestCanceledRunIsNotMemoized cancels a run once its computation is in
// flight, then runs the same spec with a live context on the same
// executor: the canceled computation must not be served as the spec's
// result, so the second run produces the bytes a fresh executor does.
func TestCanceledRunIsNotMemoized(t *testing.T) {
	for _, rs := range []RunSpec{
		{Kind: KindExperiments, Experiments: "table2", Quick: true, Sizes: []int{2, 4}, Engine: "symbolic"},
		{Kind: KindJobstream},
	} {
		t.Run(rs.Kind, func(t *testing.T) {
			want := runSpec(t, newExecutor(t, ExecutorOptions{Jobs: 2}), rs)
			ex := newExecutor(t, ExecutorOptions{Jobs: 2})
			ctx, cancel := context.WithCancel(context.Background())
			first := make(chan error, 1)
			go func() { first <- ex.Run(ctx, rs, io.Discard) }()
			// The cache registers the run's computation before starting it.
			for ex.cache.Len() == 0 {
				runtime.Gosched()
			}
			cancel()
			if err := <-first; err == nil {
				t.Log("the run finished before it saw the cancellation")
			}
			if got := runSpec(t, ex, rs); !bytes.Equal(got, want) {
				t.Errorf("rerun after a canceled run differs from a fresh executor's bytes:\n%s", got)
			}
		})
	}
}

// diskMemEntries is the memory bound runner.NewCache gives a disk-backed
// cache.
const diskMemEntries = 64

// TestDiskExecutorBoundsMemoryLayer streams 200 distinct faultscan specs
// and 200 distinct-seed experiments specs through a disk-backed
// executor: its one in-memory table keeps at most diskMemEntries
// completed results, a spec touched every few requests stays a memory
// hit, and an evicted spec of either kind comes back from disk
// byte-identical. A memory-only executor has nowhere to restore from,
// so it keeps every result.
func TestDiskExecutorBoundsMemoryLayer(t *testing.T) {
	scan := func(seed int64) RunSpec {
		return RunSpec{
			Kind: KindFaultscan, Workload: "ge", P: 4, N: 40,
			Faults: &faults.Spec{Seed: seed, StragglerFrac: 0.5, StragglerFactor: 2},
		}
	}
	table6 := func(seed int64) RunSpec {
		return RunSpec{Kind: KindExperiments, Experiments: "table6", Quick: true, Seed: seed}
	}
	const distinct = 200
	ex := newExecutor(t, ExecutorOptions{Jobs: 1, CacheDir: t.TempDir()})
	hot := scan(distinct + 1)
	hotOut := runSpec(t, ex, hot)
	firstScan := runSpec(t, ex, scan(1))
	firstTable := runSpec(t, ex, table6(1))
	for i := 2; i <= distinct; i++ {
		runSpec(t, ex, scan(int64(i)))
		runSpec(t, ex, table6(int64(i)))
		if n := ex.cache.Len(); n > diskMemEntries {
			t.Fatalf("after %d specs of each kind the memory layer holds %d results, bound %d", i, n, diskMemEntries)
		}
		if i%5 != 0 {
			continue
		}
		before := ex.CacheStats()
		if out := runSpec(t, ex, hot); !bytes.Equal(out, hotOut) {
			t.Fatal("hot spec bytes changed")
		}
		after := ex.CacheStats()
		if after.Hits != before.Hits+1 || after.DiskHits != before.DiskHits {
			t.Fatalf("hot spec after %d specs: want a memory hit, stats %+v -> %+v", i, before, after)
		}
	}
	if n := ex.cache.Len(); n != diskMemEntries {
		t.Errorf("memory layer holds %d results, want the bound %d", n, diskMemEntries)
	}
	for _, c := range []struct {
		rs   RunSpec
		want []byte
	}{{scan(1), firstScan}, {table6(1), firstTable}} {
		before := ex.CacheStats()
		if out := runSpec(t, ex, c.rs); !bytes.Equal(out, c.want) {
			t.Errorf("evicted %s spec restored from disk with different bytes", c.rs.Kind)
		}
		after := ex.CacheStats()
		if after.DiskHits != before.DiskHits+1 || after.DiskMisses != before.DiskMisses {
			t.Errorf("evicted %s spec: want one disk hit and no recomputation, stats %+v -> %+v", c.rs.Kind, before, after)
		}
	}

	mem := newExecutor(t, ExecutorOptions{Jobs: 1})
	for i := 1; i <= distinct; i++ {
		runSpec(t, mem, scan(int64(i)))
		runSpec(t, mem, table6(int64(i)))
	}
	if n := mem.cache.Len(); n != 2*distinct {
		t.Errorf("memory-only executor holds %d results, want all %d", n, 2*distinct)
	}
}

// BenchmarkNewExecutorDecode is the set-up a cold run pays before any
// work: a memory-only executor plus decoding the quick-suite spec.
func BenchmarkNewExecutorDecode(b *testing.B) {
	body, err := json.Marshal(RunSpec{Kind: KindExperiments, Experiments: "all", Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewExecutor(ExecutorOptions{Jobs: 2}); err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
