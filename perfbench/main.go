// Command perfbench is the repository's host-time benchmark. It drives the
// program through its public entry points under three seeded workloads,
// checks every output, and prints each metric by name with its unit; the
// last line of standard output is one JSON object with the results.
//
//	bash perfbench/run.sh --workload suite-quick --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice (untraced, then traced and CPU-profiled), runs the per-layer
// probes, writes the traced spans as Chrome trace-event JSON and reports
// the per-layer metrics. README.md in this directory documents every
// workload and metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultSeed is the seed the committed output digests were taken at.
const defaultSeed = 1

// outDir, relative to the checkout root the benchmark runs from, holds its
// scratch cache directories and the traces it writes; run.sh builds the
// binary there too.
var outDir = filepath.Join(".bench_build", "perfbench")

// benchWorkload is one seeded input set the benchmark runs.
type benchWorkload struct {
	name    string
	measure func(e *env) error
}

var workloads = []benchWorkload{
	{"suite-quick", measureSuite},
	{"jobstream-1k", measureJobstream},
	{"serve-mix", measureServeMix},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"req_p50_ms", "ms"},
	{"req_tail_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"disk_hit_p50_ms", "ms"},
}

// env is one measurement of one workload: its inputs, and what the
// workload recorded while running.
type env struct {
	seed int64
	dur  time.Duration
	dir  string        // private scratch directory
	tr   *tracer       // nil when untraced
	prof *bytes.Buffer // when set, the timed phase is CPU-profiled into it
	log  io.Writer

	mu        sync.Mutex
	setup     []float64 // seconds per set-up
	opWall    []float64 // seconds per operation
	ops       float64   // operations in the timed phase
	units     float64   // work units completed in the timed phase
	req       []float64 // ms per request
	hit       []float64 // ms per memory-cache hit
	miss      []float64 // ms per computed request
	diskHit   []float64 // ms per disk-cache hit
	attempted int
	failed    int

	t0         time.Time
	cpu0       float64
	alloc0     uint64
	phaseWall  float64
	phaseCPU   float64
	phaseAlloc float64
	peakRSS    float64
}

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 51

// outcome counts one attempted operation, failed when err is non-nil.
func (e *env) outcome(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err != nil {
		e.failed++
		if e.failed <= 5 {
			fmt.Fprintf(e.log, "perfbench: operation failed: %v\n", err)
		}
	}
}

// add appends a latency sample (ms) to one of the env's lists.
func (e *env) add(list *[]float64, d time.Duration) {
	e.mu.Lock()
	*list = append(*list, ms(d))
	e.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// settle collects the garbage an operation left before cache hits are
// sampled, so sub-millisecond hit latencies do not depend on where a
// background collection happens to be.
func settle() { runtime.GC() }

// deadline is when the timed phase stops starting operations.
func (e *env) deadline() time.Time { return e.t0.Add(e.dur) }

// beginTimed starts the timed phase from a collected heap.
func (e *env) beginTimed() error {
	runtime.GC()
	if e.prof != nil {
		if err := pprof.StartCPUProfile(e.prof); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	e.t0 = time.Now()
	e.cpu0 = cpuSeconds()
	e.alloc0 = heapAllocated()
	return nil
}

// endTimed closes the timed phase after ops operations that completed
// units of work.
func (e *env) endTimed(ops, units float64) {
	e.phaseWall = time.Since(e.t0).Seconds()
	e.phaseCPU = cpuSeconds() - e.cpu0
	e.phaseAlloc = float64(heapAllocated() - e.alloc0)
	if e.prof != nil {
		pprof.StopCPUProfile()
	}
	e.peakRSS = peakRSSMiB()
	e.ops, e.units = ops, units
}

// endToEndMetrics derives the end-to-end metrics from a measurement.
func (e *env) endToEndMetrics() (map[string]metric, error) {
	if e.ops <= 0 {
		return nil, errors.New("the timed phase completed no operation")
	}
	reqTail, _, _ := tail(e.req)
	vals := map[string]float64{
		"setup_s":         median(e.setup),
		"wall_s":          median(e.opWall),
		"cpu_s":           e.phaseCPU / e.ops,
		"ops_per_s":       e.units / e.phaseWall,
		"peak_rss_mb":     e.peakRSS,
		"alloc_mb":        e.phaseAlloc / e.ops / (1 << 20),
		"req_p50_ms":      median(e.req),
		"req_tail_ms":     reqTail,
		"hit_p50_ms":      median(e.hit),
		"miss_p50_ms":     median(e.miss),
		"disk_hit_p50_ms": median(e.diskHit),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		v := vals[m.name]
		if math.IsNaN(v) || v <= 0 {
			return nil, fmt.Errorf("metric %s has no positive value (%v)", m.name, v)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out, nil
}

// notes are the human-readable context lines printed with the metrics.
func (e *env) notes() []string {
	v, p, n := tail(e.req)
	return []string{
		fmt.Sprintf("req_tail_ms is p%g of n=%d requests (%.4f ms)", p, n, v),
		fmt.Sprintf("samples: ops=%g setup=%d req=%d hit=%d miss=%d disk_hit=%d",
			e.ops, len(e.setup), len(e.req), len(e.hit), len(e.miss), len(e.diskHit)),
		fmt.Sprintf("error_rate %.6f (%d failed of %d attempted)",
			float64(e.failed)/float64(max(e.attempted, 1)), e.failed, e.attempted),
	}
}

func newEnv(seed int64, dur time.Duration, dir string, log io.Writer) (*env, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{seed: seed, dur: dur, dir: dir, log: log}, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: suite-quick, jobstream-1k or serve-mix")
	seed := fs.Int64("seed", defaultSeed, "benchmark seed; every input derives from it")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	scratch := filepath.Join(outDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(scratch)
	dur := time.Duration(*seconds) * time.Second
	var (
		rep   *report
		notes []string
		err   error
	)
	if *traced == 1 {
		rep, notes, err = tracedRun(w, *seed, dur, scratch, outDir, stderr)
	} else {
		rep, notes, err = untracedRun(w, *seed, dur, scratch, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printReport(stdout, w.name, rep, notes)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func untracedRun(w *benchWorkload, seed int64, dur time.Duration, scratch string, log io.Writer) (*report, []string, error) {
	e, err := newEnv(seed, dur, scratch, log)
	if err != nil {
		return nil, nil, err
	}
	if err := w.measure(e); err != nil {
		return nil, nil, err
	}
	m, err := e.endToEndMetrics()
	if err != nil {
		return nil, nil, err
	}
	return &report{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: m}, e.notes(), nil
}

// tracedRun measures the workload untraced and then traced, each for half
// the run, CPU-profiling the traced timed phase; then runs every layer
// probe under the same tracer. The per-layer report covers every probe on
// every workload; cpu_share and the tracing overhead describe this
// workload.
func tracedRun(w *benchWorkload, seed int64, dur time.Duration, scratch, traceDir string, log io.Writer) (*report, []string, error) {
	half := max(dur/2, time.Second)
	plain, err := newEnv(seed, half, filepath.Join(scratch, "untraced"), log)
	if err != nil {
		return nil, nil, err
	}
	if err := w.measure(plain); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	e, err := newEnv(seed, half, filepath.Join(scratch, "traced"), log)
	if err != nil {
		return nil, nil, err
	}
	e.tr, e.prof = tr, &bytes.Buffer{}
	if err := w.measure(e); err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{}
	shares, err := cpuShares(e.prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	for m, v := range shares {
		vals["cpu_share."+m] = v
	}
	for _, p := range probes {
		if err := p(&probeEnv{env: e, vals: vals}); err != nil {
			return nil, nil, err
		}
	}
	for layer, d := range tr.selfTimes() {
		vals["self_ms."+layer] = ms(d)
	}
	untracedWall, tracedWall := median(plain.opWall), median(e.opWall)
	vals["trace.overhead_s"] = tracedWall - untracedWall
	vals["trace.overhead_share"] = (tracedWall - untracedWall) / untracedWall
	vals["trace.spans"] = float64(len(tr.spans))

	tracePath := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := writeTrace(tr, tracePath); err != nil {
		return nil, nil, err
	}
	metrics := make(map[string]metric, len(vals))
	for _, l := range perLayer() {
		v := vals[l.name] // 0 for a layer with no span or sample in this run
		if math.IsNaN(v) {
			return nil, nil, fmt.Errorf("per-layer metric %s is NaN", l.name)
		}
		metrics[l.name] = metric{v, l.unit}
	}
	attempted, failed := plain.attempted+e.attempted, plain.failed+e.failed
	notes := append(e.notes(), "host-time trace written to "+tracePath)
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, notes, nil
}

func writeTrace(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// printReport prints one line per metric, the notes, and the JSON result
// as the last line.
func printReport(w io.Writer, name string, rep *report, notes []string) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s: correct=%v attempted=%d failed=%d\n", name, rep.Correct, rep.Attempted, rep.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	line, _ := json.Marshal(rep)
	fmt.Fprintf(w, "%s\n", line)
}
