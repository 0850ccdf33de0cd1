package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/spec"
)

// runOut drives run with stderr discarded.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(args, &out, io.Discard)
	return out.String(), err
}

func TestRunList(t *testing.T) {
	got, err := runOut(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(got, id) {
			t.Errorf("-list missing %q", id)
		}
	}
	for _, g := range experiments.Groups() {
		if !strings.Contains(got, "group:"+string(g)) {
			t.Errorf("-list missing group %q", g)
		}
	}
	if !strings.Contains(got, "'all'") {
		t.Error("-list missing 'all' selector")
	}
}

func TestRunTable1(t *testing.T) {
	got, err := runOut(t, "-exp", "table1", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "Marked speed") {
		t.Errorf("table1 output wrong:\n%s", got)
	}
}

func TestRunCSV(t *testing.T) {
	got, err := runOut(t, "-exp", "table1", "-quick", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, ",") || strings.Contains(got, "----") {
		t.Errorf("CSV output wrong:\n%s", got)
	}
}

func TestRunJSON(t *testing.T) {
	got, err := runOut(t, "-exp", "table1", "-quick", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var docs []map[string]any
	if err := json.Unmarshal([]byte(got), &docs); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, got)
	}
	if len(docs) != 1 || docs[0]["type"] != "table" {
		t.Errorf("unexpected JSON document: %v", docs)
	}
}

func TestRunGroupSelector(t *testing.T) {
	got, err := runOut(t, "-exp", "quick", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "Marked speed") || !strings.Contains(got, "tiling") {
		t.Errorf("quick selector output missing expected tables:\n%s", got)
	}
}

func TestRunDESEngine(t *testing.T) {
	got, err := runOut(t, "-exp", "ablate-tiling", "-quick", "-engine", "des")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "tiling") {
		t.Error("des engine run produced no tiling output")
	}
}

func TestRunTraceFlag(t *testing.T) {
	path := t.TempDir() + "/run.json"
	// table2 performs measured GE runs (ablate-tiling & co are analytic
	// and would leave the trace empty).
	if _, err := runOut(t, "-exp", "table2", "-quick", "-trace", path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
	kinds := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur <= 0 {
			t.Fatalf("bad event %+v", e)
		}
		kinds[e.Name] = true
	}
	if !kinds["compute"] || !kinds["send"] {
		t.Errorf("trace lacks expected span kinds, got %v", kinds)
	}
}

func TestRunTraceFlagBadPath(t *testing.T) {
	if _, err := runOut(t, "-exp", "ablate-tiling", "-quick", "-trace", t.TempDir()+"/no/such/dir/x.json"); err == nil {
		t.Error("unwritable trace path accepted")
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-exp", "nope"},
		{"-exp", "group:nope"},
		{"-exp", "table1", "-engine", "warp"},
		{"-badflag"},
		{"-exp", "table1", "-ge-target", "7"},
		{"-exp", "table1", "-csv", "-json"},
		{"-exp", "table1", "-quick", "-engine", "symbolic", "-contended"},
	} {
		if _, err := runOut(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunMarkdownReport(t *testing.T) {
	got, err := runOut(t, "-exp", "table1", "-quick", "-md")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"# Reproduction report", "## table1", "```text"} {
		if !strings.Contains(got, frag) {
			t.Errorf("markdown report missing %q", frag)
		}
	}
}

// TestMarkdownRejectsOtherOutputs: -md renders its own report, so a
// second output flag beside it is an error rather than silently dropped.
func TestMarkdownRejectsOtherOutputs(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.json")
	for _, extra := range [][]string{{"-csv"}, {"-json"}, {"-trace", tracePath}} {
		args := append([]string{"-exp", "table1", "-quick", "-md"}, extra...)
		if _, err := runOut(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("-md -trace touched the trace file: %v", err)
	}
}

// TestCacheDirSurvivesRestart runs the same experiment in two separate
// run() invocations sharing a cache directory — two processes from the
// CLI's point of view — and requires byte-identical output plus a
// populated cache.
func TestCacheDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	first, err := runOut(t, "-exp", "table2", "-quick", "-cache-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := runOut(t, "-cache-dir", dir, "-cache-info")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(info, " 0 entries") {
		t.Fatalf("cache empty after a cached run: %s", info)
	}
	second, err := runOut(t, "-exp", "table2", "-quick", "-cache-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("restarted run output differs from the original")
	}
	if len(first) == 0 {
		t.Error("empty output")
	}
}

func TestCacheInfoAndPurgeFlags(t *testing.T) {
	dir := t.TempDir()
	// Fresh directory: zero entries.
	got, err := runOut(t, "-cache-dir", dir, "-cache-info")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "0 entries, 0 bytes") {
		t.Errorf("fresh cache info: %s", got)
	}
	if _, err := runOut(t, "-exp", "ablate-tiling", "-quick", "-cache-dir", dir); err != nil {
		t.Fatal(err)
	}
	got, err = runOut(t, "-cache-dir", dir, "-cache-purge")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "purged") || strings.Contains(got, "purged 0 entries") {
		t.Errorf("purge output: %s", got)
	}
	got, err = runOut(t, "-cache-dir", dir, "-cache-info")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "0 entries, 0 bytes") {
		t.Errorf("info after purge: %s", got)
	}
}

func TestCacheFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-info"},  // needs -cache-dir
		{"-cache-purge"}, // needs -cache-dir
		{"-cache-info", "-cache-purge", "-cache-dir", "x"}, // mutually exclusive
	} {
		if _, err := runOut(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestParallelOutputByteIdentical is the contract of the concurrent
// runner and of the engines: `-exp all -quick` renders byte-identically
// whether experiments run serially or on four workers, on every engine,
// and equals the pinned quick.golden. Run under -race this also
// exercises the suite cache's concurrency.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweep is slow")
	}
	for i, engine := range []string{"live", "des", "symbolic"} {
		serial, err := runOut(t, "-exp", "all", "-quick", "-engine", engine, "-jobs", "1")
		if err != nil {
			t.Fatalf("engine %s jobs 1: %v", engine, err)
		}
		parallel, err := runOut(t, "-exp", "all", "-quick", "-engine", engine, "-jobs", "4")
		if err != nil {
			t.Fatalf("engine %s jobs 4: %v", engine, err)
		}
		if serial != parallel {
			t.Errorf("engine %s: -jobs 4 output differs from -jobs 1", engine)
		}
		if len(serial) == 0 {
			t.Errorf("engine %s: empty output", engine)
		}
		// -update rewrites the golden from the first engine only; the
		// others must then match it.
		checkGolden(t, "quick.golden", serial, i == 0)
	}
}

// TestJobstreamByteIdenticalAcrossEnginesAndJobs is the scheduler
// determinism gate: the multi-tenant jobstream output must be
// byte-identical across engines (bit-identical virtual time) and worker
// counts (the DES admission timeline does not depend on host
// scheduling).
func TestJobstreamByteIdenticalAcrossEnginesAndJobs(t *testing.T) {
	base, err := runOut(t, "-exp", "jobstream", "-quick", "-engine", "des", "-jobs", "1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"atlas", "borealis", "cygnus"} {
		if !strings.Contains(base, tenant) {
			t.Errorf("jobstream output missing tenant %q:\n%s", tenant, base)
		}
	}
	for _, pol := range []string{"fcfs", "pack", "priority", "sjf"} {
		if !strings.Contains(base, pol) {
			t.Errorf("jobstream output missing policy %q", pol)
		}
	}
	for _, engine := range []string{"live", "symbolic"} {
		got, err := runOut(t, "-exp", "jobstream", "-quick", "-engine", engine, "-jobs", "1")
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if got != base {
			t.Errorf("engine %s jobstream output differs from des", engine)
		}
	}
	again, err := runOut(t, "-exp", "jobstream", "-quick", "-engine", "des", "-jobs", "8")
	if err != nil {
		t.Fatal(err)
	}
	if again != base {
		t.Error("-jobs 8 jobstream output differs from -jobs 1")
	}
}

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestJobstreamGolden pins the job-stream studies byte for byte: the
// jobstream, jobstream-faults and elastic experiments, and RunSpec
// documents that plan membership next to the autoscaler — one of them
// with every section composed, one with a plan drain of a node the
// autoscaler holds drained. The symbolic engine renders the same bytes
// as des and live, in a few milliseconds.
func TestJobstreamGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"jobstream.golden", []string{"-exp", "jobstream", "-engine", "symbolic"}},
		{"jobstream-faults.golden", []string{"-exp", "jobstream-faults", "-engine", "symbolic"}},
		{"elastic.golden", []string{"-exp", "elastic", "-engine", "symbolic"}},
		{"readme-elastic.golden", []string{"-spec", "testdata/readme-elastic.json"}},
		{"composed.golden", []string{"-spec", "testdata/composed.json"}},
		{"takeover.golden", []string{"-spec", "testdata/takeover.json"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			got, err := runOut(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.golden, got, true)
		})
	}
}

// TestReproductionGolden pins the full-size reproduction and the two
// engine-specific variants byte for byte: `-exp all` (the paper-size
// sweep, the slowest run in this package), the quick sweep on des with
// link contention, and the ablation group on des. Each runs exactly the
// command it names, at full size.
func TestReproductionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size sweep is slow")
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all.golden", []string{"-exp", "all"}},
		{"quick-des-contended.golden", []string{"-exp", "all", "-quick", "-engine", "des", "-contended"}},
		{"ablation-des.golden", []string{"-exp", "group:ablation", "-engine", "des"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			got, err := runOut(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.golden, got, true)
		})
	}
}

// TestTracePins pins Chrome traces by size and sha256, since the files
// run to megabytes. Each traced recovered run records every checkpoint
// write as a span with its byte count, so the first two guard how
// checkpoints are priced as well as the timeline around them; the
// contention ablation builds its own DES options, and its pin guards
// that they carry the trace.
func TestTracePins(t *testing.T) {
	if testing.Short() {
		t.Skip("traces run to megabytes")
	}
	for _, tc := range []struct {
		exp  string
		size int
		sha  string
	}{
		{"jobstream-faults", 2765570, "dbf44f3101e8725a90645814d82711d7c2f0f6a0e096ee29e901eb70d27d713f"},
		{"recovered-sweep", 7716426, "82e03a3d7b2fb154b00e3fb3a62f48a4bbac02e2cbe83093f4f45a4f47e983b5"},
		{"ablate-contention", 2304365, "7e7207be61e4c62c719e7c37601f5d1dd349fe09e6ed671d4c764f32c4b256f1"},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			if _, err := runOut(t, "-exp", tc.exp, "-quick", "-engine", "des", "-jobs", "1", "-trace", path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); len(raw) != tc.size || got != tc.sha {
				t.Errorf("trace drifted: %d bytes, sha256 %s; want %d bytes, sha256 %s", len(raw), got, tc.size, tc.sha)
			}
		})
	}
}

// checkGolden compares got with testdata/name, or, under -update with
// write set, rewrites the golden from got.
func checkGolden(t *testing.T, name, got string, write bool) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update && write {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (rerun with -update to accept):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestSpecFileRunsJobstreamKind exercises the -spec front-end: a
// RunSpec JSON file with a custom tenant stream runs the jobstream kind
// directly from the CLI.
func TestSpecFileRunsJobstreamKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.json")
	doc := `{"kind":"jobstream","engine":"des","sharedP":8,"policies":["fcfs","pack"],
		"stream":{"seed":9,"tenants":[
			{"name":"solo","workload":"jacobi","n":48,"width":3,"jobs":2,"meanGapMS":200}]}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := runOut(t, "-spec", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "solo") || !strings.Contains(got, "8-node") {
		t.Errorf("-spec jobstream output wrong:\n%s", got)
	}
	if strings.Contains(got, "sjf") {
		t.Error("-spec ran policies the spec did not select")
	}
	if _, err := runOut(t, "-spec", path, "-exp", "table1"); err == nil {
		t.Error("-spec with -exp accepted")
	}
	if _, err := runOut(t, "-spec", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing -spec file accepted")
	}
}

// TestSpecFileRejectsRunFlags: a spec file sets the output format and
// every run setting, so each flag for one of them beside -spec is an
// error rather than silently dropped — even when it repeats the default.
// Pool, cache, verbosity and client flags do not change the result and
// stay allowed.
func TestSpecFileRejectsRunFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.json")
	if err := os.WriteFile(path, []byte(`{"kind":"experiments","experiments":"table1","quick":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-csv"},
		{"-json"},
		{"-quick"},
		{"-engine", "live"},
		{"-engine", "des"},
		{"-contended"},
		{"-ge-target", "0.5"},
		{"-mm-target", "0.2"},
	} {
		args := append([]string{"-spec", path}, extra...)
		if _, err := runOut(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		} else if !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("args %v: error %q does not name %s", args, err, extra[0])
		}
	}
	want, err := runOut(t, "-spec", path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runOut(t, "-spec", path, "-jobs", "1", "-v", "-cache-dir", t.TempDir())
	if err != nil {
		t.Fatalf("-spec with pool, verbosity and cache flags: %v", err)
	}
	if got != want {
		t.Error("-jobs, -v or -cache-dir changed -spec output")
	}
}

// TestSpecFileAgreesWithServer: `hetsim -spec FILE` and a POST of the
// same file to the server apply one rule. A spec the CLI runs gets a 200
// with the CLI's bytes, and one it refuses gets a 400, on /run and,
// with -trace, on /trace. The refused specs decode as JSON but could
// never run; left to fail in the executor, the server would answer 500.
func TestSpecFileAgreesWithServer(t *testing.T) {
	ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(ex).Handler())
	defer ts.Close()
	stream := `"stream":{"seed":9,"tenants":[{"name":"solo","workload":"jacobi","n":24,"width":2,"jobs":1,"meanGapMS":10}]}`
	for _, tc := range []struct {
		doc        string
		run, trace bool // whether -spec runs it, and with -trace
	}{
		{`{"kind":"experiments","experiments":"table1","quick":true}`, true, true},
		{`{"kind":"experiments","experiments":"table1","sizes":[4]}`, false, false},
		{`{"kind":"experiments","experiments":"fig1","sizes":[2]}`, false, false},
		{`{"kind":"experiments","experiments":"fig1","sizes":[0,4]}`, false, false},
		{`{"kind":"experiments","experiments":"table9"}`, false, false},
		{`{"kind":"faultscan","workload":"mm","p":1,"n":10,"faults":{"seed":1}}`, false, false},
		{`{"kind":"jobstream","sharedP":4,` + stream + `}`, true, false},
	} {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			args, endpoint, want := []string{"-spec", path}, "/run", tc.run
			if traced {
				args = append(args, "-trace", filepath.Join(t.TempDir(), "trace.json"))
				endpoint, want = "/trace", tc.trace
			}
			got, cliErr := runOut(t, args...)
			if (cliErr == nil) != want {
				t.Errorf("%v on %s: error %v, want run %v", args, tc.doc, cliErr, want)
			}
			resp, err := http.Post(ts.URL+endpoint, "application/json", strings.NewReader(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			wantStatus := http.StatusBadRequest
			if cliErr == nil {
				wantStatus = http.StatusOK
			}
			if resp.StatusCode != wantStatus {
				t.Errorf("POST %s %s: status %d, want %d (CLI error %v): %s", endpoint, tc.doc, resp.StatusCode, wantStatus, cliErr, body)
			}
			if !traced && cliErr == nil && string(body) != got {
				t.Errorf("POST /run %s differs from -spec:\n%s\nvs\n%s", tc.doc, body, got)
			}
		}
	}
}

// TestCacheMaxBytesFlag checks the flag's validation and that a capped
// cache directory still serves runs.
func TestCacheMaxBytesFlag(t *testing.T) {
	if _, err := runOut(t, "-exp", "table1", "-quick", "-cache-max-bytes", "1024"); err == nil {
		t.Error("-cache-max-bytes without -cache-dir accepted")
	}
	if _, err := runOut(t, "-exp", "table1", "-quick", "-cache-dir", t.TempDir(), "-cache-max-bytes", "-1"); err == nil {
		t.Error("negative -cache-max-bytes accepted")
	}
	dir := t.TempDir()
	first, err := runOut(t, "-exp", "table1", "-quick", "-cache-dir", dir, "-cache-max-bytes", "1048576")
	if err != nil {
		t.Fatal(err)
	}
	second, err := runOut(t, "-exp", "table1", "-quick", "-cache-dir", dir, "-cache-max-bytes", "1048576")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("capped cache changed the rendered output")
	}
}
