package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

// FuzzServe posts arbitrary bodies to /run and /trace. Whatever the body,
// the server must answer 200, 400, 413 or 503 (its execution deadline):
// a 500 or a panic means an input reached execution that Decode should
// have refused, or an execution error went unclassified.
func FuzzServe(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"experiments","experiments":"table1","quick":true}`,
		`{"kind":"experiments","experiments":"table2","quick":true,"engine":"symbolic"}`,
		`{"kind":"experiments","experiments":"fig1","sizes":[2,4],"geTarget":0.3,"mmTarget":0.2}`,
		`{"kind":"scalescan","workload":"jacobi","asymSizes":[10,40]}`,
		`{"kind":"faultscan","workload":"mm","p":4,"n":40,"faults":{"seed":3,"stragglerFrac":0.5,"stragglerFactor":2},"recover":true,"ckptInterval":8}`,
		`{"kind":"jobstream","sharedP":4,"stream":{"seed":1,"tenants":[{"name":"a","workload":"ge","n":24,"width":2,"jobs":3,"meanGapMS":10}]}}`,
		`{"kind":"jobstream","sharedP":4,"stream":{"seed":1,"tenants":[{"name":"a","workload":"mm","n":16,"width":2,"jobs":2,"meanGapMS":5}]},
		  "nodeFaults":{"seed":5,"failures":6,"meanUpMS":30,"meanDownMS":20},"admission":{"maxQueue":4,"maxWaitMS":30}}`,
		`{"kind":"experiments","experiments":"table1","geTarget":7}`,
		`{"kind":"experiments","quikc":true}`,
		`{"version":9}`,
		`{"kind":"experiments","experiments":"table1","quick":true} trailing data`,
		`table2 please`,
		``,
	} {
		f.Add(false, []byte(seed))
		f.Add(true, []byte(seed))
	}
	f.Fuzz(func(t *testing.T, trace bool, body []byte) {
		if !affordable(body) {
			t.Skip("asks for more than this test may run")
		}
		ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		path := "/run"
		if trace {
			path = "/trace"
		}
		rec := httptest.NewRecorder()
		NewWith(ex, Options{Timeout: 50 * time.Millisecond}).Handler().
			ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST %s answered %d: %s\nbody: %q", path, rec.Code, rec.Body.Bytes(), body)
		}
	})
}

// affordable reports whether running a body stays within a few megabytes
// and a second or so. RunSpec.Validate bounds no system or problem size,
// so one fuzzed digit could ask for a cluster of a billion nodes: every
// number must be at most 64 in magnitude (a seed may be anything), and an
// efficiency target at most 0.5, as the size a target requires grows
// without bound towards 1. The body is read as spec.Decode reads it: the
// first JSON value, whatever follows it. One that does not parse runs
// nothing; with UseNumber even a number beyond float64 parses, so Decode
// cannot skip past a value this check could not read.
func affordable(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var doc any
	if dec.Decode(&doc) != nil {
		return true
	}
	return small("", doc)
}

// small checks one JSON value under key; encoding/json matches keys to
// fields regardless of case, and so does small.
func small(key string, v any) bool {
	key = strings.ToLower(key)
	switch v := v.(type) {
	case json.Number:
		if key == "seed" {
			return true
		}
		f, err := strconv.ParseFloat(string(v), 64)
		switch {
		case err != nil:
			return false // beyond float64
		case strings.Contains(key, "target"):
			return f <= 0.5 || f >= 1 // Validate refuses 1 and above
		}
		return math.Abs(f) <= 64
	case []any:
		for _, e := range v {
			if !small(key, e) {
				return false
			}
		}
	case map[string]any:
		for k, e := range v {
			if !small(k, e) {
				return false
			}
		}
	}
	return true
}

// TestAffordableReadsLikeDecode: the filter must see every value Decode
// would act on, so data after the first JSON value is ignored by both,
// and a number that float64 cannot hold is no way past it.
func TestAffordableReadsLikeDecode(t *testing.T) {
	for _, tc := range []struct {
		body string
		want bool
	}{
		{`{"kind":"jobstream","sharedP":4}`, true},
		{`{"kind":"jobstream","sharedP":100000000}`, false},
		{`{"kind":"jobstream","sharedP":100000000}x`, false},
		{`{"kind":"jobstream","sharedP":4} {"sharedP":100000000}`, true},
		{`{"kind":"jobstream","SHAREDP":100000000}`, false},
		{`{"kind":"jobstream","sharedP":1e400}`, false},
		{`{"kind":"experiments","geTarget":0.99}`, false},
		{`{"kind":"faultscan","faults":{"seed":123456789}}`, true},
		{`table2 please`, true},
	} {
		if got := affordable([]byte(tc.body)); got != tc.want {
			t.Errorf("affordable(%s) = %v, want %v", tc.body, got, tc.want)
		}
	}
}
