package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/spec"
)

func newServer(t *testing.T, opts spec.ExecutorOptions) (*httptest.Server, *spec.Executor) {
	t.Helper()
	ex, err := spec.NewExecutor(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(ex).Handler())
	t.Cleanup(ts.Close)
	return ts, ex
}

func postSpec(t *testing.T, ts *httptest.Server, path string, rs spec.RunSpec) *http.Response {
	t.Helper()
	payload, err := rs.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRunMatchesLocalBytes is the API-redesign contract: POSTing a
// RunSpec returns exactly the bytes a local run of the same spec
// prints.
func TestRunMatchesLocalBytes(t *testing.T) {
	rs := spec.RunSpec{Kind: spec.KindExperiments, Experiments: "quick", Quick: true}

	local, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := local.Run(context.Background(), rs, &want); err != nil {
		t.Fatal(err)
	}

	ts, _ := newServer(t, spec.ExecutorOptions{Jobs: 4, Pool: runner.NewPool(2)})
	resp := postSpec(t, ts, "/run", rs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("server bytes differ from local run:\nserver %d bytes\nlocal %d bytes", len(got), want.Len())
	}
}

func TestRunContentTypes(t *testing.T) {
	ts, _ := newServer(t, spec.ExecutorOptions{Jobs: 4})
	for format, want := range map[string]string{"csv": "text/csv", "json": "application/json"} {
		rs := spec.RunSpec{Kind: spec.KindExperiments, Experiments: "table2", Quick: true, Format: format}
		resp := postSpec(t, ts, "/run", rs)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %s", format, resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, want) {
			t.Errorf("%s: content type %q, want %s", format, ct, want)
		}
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	ts, _ := newServer(t, spec.ExecutorOptions{})
	for name, body := range map[string]string{
		"invalid":       `{"version":1,"kind":"experiments","experiments":"quick","geTarget":7}`,
		"unknown field": `{"version":1,"kind":"experiments","experiments":"quick","quikc":true}`,
		"wrong version": `{"version":9,"kind":"experiments","experiments":"quick"}`,
		"not json":      `table2 please`,
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", name, resp.Status)
		}
	}
}

// TestSpecBodyBounded: an oversize body on either spec endpoint is
// refused with 413 instead of being streamed into the decoder, while a
// body exactly at the limit is still decoded and run.
func TestSpecBodyBounded(t *testing.T) {
	ts, _ := newServer(t, spec.ExecutorOptions{Jobs: 2})
	oversize := `{"kind":"experiments","experiments":"` + strings.Repeat("a", maxSpecBytes) + `"}`
	atLimit := `{"kind":"experiments","experiments":"table2","quick":true}`
	atLimit += strings.Repeat(" ", maxSpecBytes-len(atLimit))
	for _, path := range []string{"/run", "/trace"} {
		for _, tc := range []struct {
			name string
			body string
			want int
		}{
			{"oversize", oversize, http.StatusRequestEntityTooLarge},
			{"at limit", atLimit, http.StatusOK},
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s (%d bytes): status %s, want %d", path, tc.name, len(tc.body), resp.Status, tc.want)
			}
		}
	}
}

func TestRunRequiresPOST(t *testing.T) {
	ts, _ := newServer(t, spec.ExecutorOptions{})
	for _, path := range []string{"/run", "/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %s, want 405", path, resp.Status)
		}
	}
}

func TestTraceReturnsChromeEvents(t *testing.T) {
	ts, _ := newServer(t, spec.ExecutorOptions{Jobs: 2})
	rs := spec.RunSpec{Kind: spec.KindExperiments, Experiments: "table2", Quick: true}
	resp := postSpec(t, ts, "/trace", rs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

// healthz decodes one /healthz response.
type healthzDoc struct {
	Status string `json:"status"`
	Pool   *struct {
		Size  int `json:"size"`
		InUse int `json:"inUse"`
	} `json:"pool"`
	Cache *struct {
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	} `json:"cache"`
}

func getHealthz(t *testing.T, ts *httptest.Server) healthzDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	var doc healthzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestHealthz(t *testing.T) {
	// A bare executor: alive, no shared pool, no persistent cache.
	ts, _ := newServer(t, spec.ExecutorOptions{})
	doc := getHealthz(t, ts)
	if doc.Status != "ok" || doc.Pool != nil || doc.Cache != nil {
		t.Errorf("bare healthz: %+v", doc)
	}
}

func TestHealthzReportsPoolAndCache(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newServer(t, spec.ExecutorOptions{Pool: runner.NewPool(3), CacheDir: dir})

	// Idle server: pool visible and empty, persistent layer visible and
	// empty.
	doc := getHealthz(t, ts)
	if doc.Status != "ok" {
		t.Fatalf("healthz status: %+v", doc)
	}
	if doc.Pool == nil || doc.Pool.Size != 3 || doc.Pool.InUse != 0 {
		t.Errorf("idle pool: %+v", doc.Pool)
	}
	if doc.Cache == nil || doc.Cache.Entries != 0 || doc.Cache.Bytes != 0 {
		t.Errorf("empty cache: %+v", doc.Cache)
	}

	// After a persisted run the entry count and byte size are non-zero.
	resp := postSpec(t, ts, "/run", spec.RunSpec{Kind: spec.KindJobstream, Engine: "des"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %s", resp.Status)
	}
	io.Copy(io.Discard, resp.Body)
	doc = getHealthz(t, ts)
	if doc.Cache == nil || doc.Cache.Entries < 1 || doc.Cache.Bytes <= 0 {
		t.Errorf("cache after run: %+v", doc.Cache)
	}
	if doc.Pool == nil || doc.Pool.InUse != 0 {
		t.Errorf("pool after run should be drained: %+v", doc.Pool)
	}
}

func TestListCatalog(t *testing.T) {
	ts, _ := newServer(t, spec.ExecutorOptions{})
	resp, err := http.Get(ts.URL + "/list")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cat struct {
		Experiments []struct{ ID string }
		Workloads   []struct{ Name string }
		Policies    []struct{ Name, About string }
	}
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Experiments) == 0 || len(cat.Workloads) == 0 {
		t.Errorf("catalog empty: %+v", cat)
	}
	ids := map[string]bool{}
	for _, e := range cat.Experiments {
		ids[e.ID] = true
	}
	if !ids["table2"] {
		t.Errorf("catalog missing table2: %v", ids)
	}
	if !ids["jobstream"] {
		t.Errorf("catalog missing jobstream: %v", ids)
	}
	pols := map[string]bool{}
	for _, p := range cat.Policies {
		pols[p.Name] = true
		if p.About == "" {
			t.Errorf("policy %q has no about text", p.Name)
		}
	}
	for _, want := range []string{"fcfs", "pack", "priority", "sjf"} {
		if !pols[want] {
			t.Errorf("catalog missing policy %q: %v", want, pols)
		}
	}
}

// TestJobstreamRunMatchesLocalBytes extends the server contract to the
// jobstream kind: a POSTed multi-tenant spec returns exactly what a
// local run prints.
func TestJobstreamRunMatchesLocalBytes(t *testing.T) {
	rs := spec.RunSpec{Kind: spec.KindJobstream, Engine: "des"}

	local, err := spec.NewExecutor(spec.ExecutorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := local.Run(context.Background(), rs, &want); err != nil {
		t.Fatal(err)
	}

	ts, _ := newServer(t, spec.ExecutorOptions{Pool: runner.NewPool(2)})
	resp := postSpec(t, ts, "/run", rs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("server jobstream bytes differ from local run:\nserver %d bytes\nlocal %d bytes", len(got), want.Len())
	}
	if !bytes.Contains(got, []byte("Retention")) {
		t.Errorf("jobstream output missing retention column:\n%s", got)
	}
}

func TestCacheEndpointReportsDisk(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newServer(t, spec.ExecutorOptions{Jobs: 4, CacheDir: dir})
	rs := spec.RunSpec{Kind: spec.KindExperiments, Experiments: "table2", Quick: true}
	if resp := postSpec(t, ts, "/run", rs); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %s", resp.Status)
	}
	resp, err := http.Get(ts.URL + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Stats   runner.Stats `json:"stats"`
		Dir     string       `json:"dir"`
		Entries int          `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Dir != dir {
		t.Errorf("dir %q, want %q", doc.Dir, dir)
	}
	if doc.Entries == 0 {
		t.Error("no persisted entries after a run")
	}
	if doc.Stats.DiskMisses == 0 {
		t.Errorf("stats show no computation: %+v", doc.Stats)
	}
}

// TestConcurrentRequestsShareOneSuite exercises the server-mode cache:
// identical specs POSTed concurrently must return identical bytes and
// compute the shared work once (single-flight).
func TestConcurrentRequestsShareOneSuite(t *testing.T) {
	ts, ex := newServer(t, spec.ExecutorOptions{Jobs: 2, Pool: runner.NewPool(2)})
	rs := spec.RunSpec{Kind: spec.KindExperiments, Experiments: "table2", Quick: true}
	const clients = 4
	results := make([][]byte, clients)
	errs := make([]error, clients)
	done := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer func() { done <- i }()
			payload, err := rs.Canonical()
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			results[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-done
	}
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("client %d got different bytes", i)
		}
	}
	st := ex.CacheStats()
	if st.Hits == 0 {
		t.Errorf("concurrent identical requests shared no work: %+v", st)
	}
}

// TestRunTimeoutReturns503AndReleasesSlot is the execution-deadline
// contract: a spec that cannot finish inside the server's timeout gets
// a 503 with a structured JSON error, and — crucially — its worker-pool
// slot comes back, so the server is not wedged for the next request.
func TestRunTimeoutReturns503AndReleasesSlot(t *testing.T) {
	ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 1, Pool: runner.NewPool(1)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWith(ex, Options{Timeout: 20 * time.Millisecond}).Handler())
	t.Cleanup(ts.Close)

	// table4 is a measured sweep: far slower than 20ms on any machine.
	heavy := spec.RunSpec{Kind: spec.KindExperiments, Experiments: "table4"}
	payload, err := heavy.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %s, want 503", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q, want JSON", ct)
	}
	var body struct {
		Error     string  `json:"error"`
		TimeoutMS float64 `json:"timeoutMS"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "deadline") || body.TimeoutMS != 20 {
		t.Errorf("structured error wrong: %+v", body)
	}

	// The single pool slot must be free again: a direct run through the
	// same executor completes instead of queueing forever behind the
	// canceled one.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cheap := spec.RunSpec{Kind: spec.KindExperiments, Experiments: "table1"}
	var out bytes.Buffer
	if err := ex.Run(ctx, cheap, &out); err != nil {
		t.Fatalf("follow-up run after timeout: %v (slot leaked?)", err)
	}
	if out.Len() == 0 {
		t.Fatal("follow-up run produced no output")
	}
}
