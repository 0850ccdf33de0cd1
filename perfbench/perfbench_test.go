package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	specBytes := func(seed int64) []byte {
		b, err := json.Marshal(jobstreamSpec(seed, "des"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(specBytes(7), specBytes(7)) {
		t.Error("jobstream-1k spec differs between two expansions of seed 7")
	}
	a, b := jobstreamSpec(7, "des"), jobstreamSpec(8, "des")
	if a.Stream.Seed == b.Stream.Seed || a.NodeFaults.Seed == b.NodeFaults.Seed {
		t.Errorf("seeds 7 and 8 share a stream seed (%d, %d) or outage seed (%d, %d)",
			a.Stream.Seed, b.Stream.Seed, a.NodeFaults.Seed, b.NodeFaults.Seed)
	}

	seqBytes := func(seed int64) []byte {
		reqs, err := sequence(seed, 300)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range reqs {
			buf.WriteString(r.class)
			buf.Write(r.body)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	if !bytes.Equal(seqBytes(7), seqBytes(7)) {
		t.Error("serve-mix sequence differs between two expansions of seed 7")
	}
	if bytes.Equal(seqBytes(7), seqBytes(8)) {
		t.Error("seeds 7 and 8 give the same serve-mix sequence")
	}

	bodies := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	s1, s2 := restartSample(7, bodies, 4, 3), restartSample(7, bodies, 4, 3)
	if len(s1) != 3 || !bytes.Equal(bytes.Join(s1, nil), bytes.Join(s2, nil)) {
		t.Errorf("restart sample not reproducible: %q vs %q", s1, s2)
	}
	for _, b := range s1 {
		if string(b) == "a" {
			t.Errorf("restart sample %q reaches outside the last 4 one-offs", s1)
		}
	}
}

func TestSequenceMix(t *testing.T) {
	reqs, err := sequence(3, 4000)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	seen := map[string]bool{}
	for _, r := range reqs {
		counts[r.class]++
		if r.class == classOneOff {
			if seen[string(r.body)] {
				t.Fatalf("one-off spec repeated: %s", r.body)
			}
			seen[string(r.body)] = true
		}
	}
	if share := float64(counts[classOneOff]) / float64(len(reqs)); share < 0.2 || share > 0.3 {
		t.Errorf("one-off share %.3f, want about %.2f", share, 1-hotShare)
	}
	if counts[classUncached] == 0 {
		t.Error("the sequence never sends the uncached spec")
	}
}

func TestMetricNames(t *testing.T) {
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameOK.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameOK)
		}
		if !unitOK.MatchString(unit) {
			t.Errorf("metric %s has unit %q outside %s", name, unit, unitOK)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}
	for _, m := range endToEnd {
		check(m.name, m.unit)
	}
	layers := perLayer()
	for _, m := range layers {
		check(m.name, m.unit)
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
	}
	if len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, at most 16 allowed", len(endToEnd))
	}
	if len(layers) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(layers))
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(doc.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Bound == nil || *got.Bound <= 0 || *got.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %s (%s)", i, got, m.name, m.unit)
			continue
		}
		largest = max(largest, *got.Bound)
	}
	if doc.EndToEnd[0].Name != "setup_s" || *doc.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first with the largest bound %g", largest)
	}
	layers := perLayer()
	if len(doc.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(doc.PerLayer), len(layers))
	}
	for i, m := range layers {
		if got := doc.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, got, m)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value, pc float64
	}{
		{5, 3, 50},
		{19, 10, 50},
		{20, 10.5, 50},
		{100, 90, 90},
		{300, 285, 95},
		{1000, 990, 99},
		{10000, 9990, 99.9},
	} {
		v, p, n := tail(seq(tc.n))
		if v != tc.value || p != tc.pc || n != tc.n {
			t.Errorf("tail of 1..%d = %g at p%g (n=%d), want %g at p%g", tc.n, v, p, n, tc.value, tc.pc)
		}
		if rank := nearestRank(p, n); p > 50 && n-rank < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", n, p, n-rank)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Layer: "spec", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "experiments", Start: 2, End: 5},
		{ID: 3, Parent: 1, Layer: "experiments", Start: 4, End: 8},
		{ID: 4, Parent: 3, Layer: "workload", Start: 4, End: 6},
	}
	self := tr.selfTimes()
	want := map[string]time.Duration{"spec": 4, "experiments": 3 + 2, "workload": 2}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], d)
		}
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 4 || doc.TraceEvents[2].Args["parent"] != 1 {
		t.Errorf("chrome trace round trip: %v, %+v", err, doc.TraceEvents)
	}
}

func TestChargeModule(t *testing.T) {
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/mpi.copySlice", "repro/internal/algs.ge"}, "mpi"},
		{[]string{"repro/internal/linalg.(*Matrix).At", "repro/internal/algs.ge"}, "linalg"},
		{[]string{"repro/internal/faults.Plan.Apply"}, "other"},
		{[]string{"encoding/json.Marshal", "main.run"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"syscall.Syscall", "net.(*conn).Read"}, "stdlib"},
	} {
		if got := chargeModule(tc.stack, known); got != tc.want {
			t.Errorf("chargeModule(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestCPUSharesParsesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum != 0 && (sum < 0.999 || sum > 1.001) {
		t.Errorf("shares sum to %g: %v", sum, shares)
	}
}

// TestServeMixSmoke runs a short serve-mix measurement and its layer probe:
// both clients, the restart rounds and the verification share state across
// goroutines, so this is the test to run under -race.
func TestServeMixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the program")
	}
	e, err := newEnv(3, 300*time.Millisecond, t.TempDir(), os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	e.tr = newTracer()
	if err := measureServeMix(e); err != nil {
		t.Fatal(err)
	}
	if e.failed != 0 || e.attempted == 0 {
		t.Fatalf("%d of %d operations failed", e.failed, e.attempted)
	}
	if len(e.req) == 0 || len(e.diskHit) == 0 {
		t.Errorf("no request (%d) or disk-hit (%d) latency recorded", len(e.req), len(e.diskHit))
	}
	p := &probeEnv{env: e, vals: map[string]float64{}}
	if err := probeServe(p); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spec.decode_us_p50", "runner.hit_us_p50", "runner.disk_hits", "runner.disk_open_ms"} {
		if p.vals[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, p.vals[name])
		}
	}
}
