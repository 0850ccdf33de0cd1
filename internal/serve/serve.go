// Package serve exposes the spec executor over HTTP: capacity planning
// as a service. POST a canonical RunSpec (internal/spec) to /run and
// receive the same bytes the CLI front-ends print for that spec; the
// server keeps its caches warm across requests and, with a persistent
// cache directory, across restarts.
//
// Endpoints:
//
//	POST /run     RunSpec JSON in, rendered result out (text/csv/json)
//	POST /trace   experiments RunSpec in, Chrome trace-event JSON out
//	GET  /healthz liveness + worker-pool occupancy and disk-cache size
//	GET  /list    JSON catalog of experiments and workloads
//	GET  /cache   JSON cache statistics (memory and disk)
//
// Request contexts propagate into the simulation: a client that
// disconnects cancels its run, releasing the worker pool for others.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Options configures request handling.
type Options struct {
	// Timeout bounds each /run and /trace execution. A spec that wedges
	// past it is canceled — releasing its worker-pool slot — and the
	// client receives a 503 with a structured JSON error body instead of
	// a connection held open forever. 0 (the default) means unbounded.
	Timeout time.Duration
}

// Server serves RunSpecs through one shared executor.
type Server struct {
	ex   *spec.Executor
	opts Options
}

// New wraps an executor with default options.
func New(ex *spec.Executor) *Server { return NewWith(ex, Options{}) }

// NewWith wraps an executor with explicit options.
func NewWith(ex *spec.Executor, opts Options) *Server { return &Server{ex: ex, opts: opts} }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/list", s.handleList)
	mux.HandleFunc("/cache", s.handleCache)
	return mux
}

// contentType maps a spec format to the response media type.
func contentType(format string) string {
	switch format {
	case "csv":
		return "text/csv; charset=utf-8"
	case "json":
		return "application/json"
	default:
		return "text/plain; charset=utf-8"
	}
}

// maxSpecBytes bounds a /run or /trace request body, so a client cannot
// stream a body of any size into the decoder. RunSpecs are small: the
// largest the serve-mix benchmark posts is a few hundred bytes.
const maxSpecBytes = 1 << 20

// decodeSpec reads the request's RunSpec, writing a 400 on failure and a
// 413 when the body exceeds maxSpecBytes.
func decodeSpec(w http.ResponseWriter, r *http.Request) (*spec.RunSpec, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a RunSpec JSON document", http.StatusMethodNotAllowed)
		return nil, false
	}
	rs, err := spec.Decode(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return nil, false
	}
	return rs, true
}

// runContext derives the execution context: the request's own (so a
// disconnecting client still cancels its run), bounded by the server's
// execution deadline when one is configured.
func (s *Server) runContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.Timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.opts.Timeout)
}

// timeoutError is the structured 503 body for a run that exceeded the
// server's execution deadline.
type timeoutError struct {
	Error     string  `json:"error"`
	TimeoutMS float64 `json:"timeoutMS"`
}

// finish writes the buffered result, or classifies the failure: a
// canceled request context means the client is gone (no response can
// land), a deadline hit on a live client is the server's execution
// timeout (503 with a structured body), anything else is an execution
// error. Output is buffered so a failed run never leaks a partial 200
// body.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, ctype string, err error) {
	if err != nil {
		if r.Context().Err() != nil {
			return // client disconnected; the run was canceled on its behalf
		}
		if errors.Is(err, context.DeadlineExceeded) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(timeoutError{
				Error:     fmt.Sprintf("execution exceeded the server's %s deadline", s.opts.Timeout),
				TimeoutMS: float64(s.opts.Timeout) / float64(time.Millisecond),
			})
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ctype)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	rs, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.runContext(r)
	defer cancel()
	var buf bytes.Buffer
	err := s.ex.Run(ctx, *rs, &buf)
	s.finish(w, r, &buf, contentType(rs.Format), err)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rs, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.runContext(r)
	defer cancel()
	var out, traceBuf bytes.Buffer
	err := s.ex.RunTrace(ctx, *rs, &out, &traceBuf)
	s.finish(w, r, &traceBuf, "application/json", err)
}

// healthDoc is the /healthz document: liveness plus the two capacity
// signals an operator watches — worker-pool occupancy and the size of
// the persistent cache.
type healthDoc struct {
	Status string `json:"status"`
	// Pool describes the shared execution pool (absent when each run
	// bounds only itself).
	Pool *poolDoc `json:"pool,omitempty"`
	// Cache describes the persistent layer (absent when memory-only).
	Cache *cacheInfoDoc `json:"cache,omitempty"`
}

type poolDoc struct {
	Size  int `json:"size"`
	InUse int `json:"inUse"`
}

type cacheInfoDoc struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := healthDoc{Status: "ok"}
	if p := s.ex.Pool(); p != nil {
		doc.Pool = &poolDoc{Size: p.Size(), InUse: p.InUse()}
	}
	if dir := s.ex.CacheDir(); dir != "" {
		if disk, err := runner.OpenDiskCache(dir); err == nil {
			if entries, bytes, ierr := disk.Info(); ierr == nil {
				doc.Cache = &cacheInfoDoc{Entries: entries, Bytes: bytes}
			}
		}
	}
	writeJSON(w, doc)
}

// catalog is the /list document.
type catalog struct {
	Experiments []catalogExperiment `json:"experiments"`
	Workloads   []catalogWorkload   `json:"workloads"`
	Policies    []catalogPolicy     `json:"policies"`
}

type catalogExperiment struct {
	ID    string `json:"id"`
	Group string `json:"group"`
	About string `json:"about"`
	Quick bool   `json:"quick"`
}

type catalogWorkload struct {
	Name  string `json:"name"`
	About string `json:"about"`
}

// catalogPolicy is one jobstream scheduling policy.
type catalogPolicy struct {
	Name  string `json:"name"`
	About string `json:"about"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var cat catalog
	for _, g := range experiments.Groups() {
		for _, e := range experiments.ByGroup(g) {
			cat.Experiments = append(cat.Experiments, catalogExperiment{
				ID: e.ID, Group: string(e.Group), About: e.About, Quick: e.Quick,
			})
		}
	}
	for _, wl := range workload.All() {
		cat.Workloads = append(cat.Workloads, catalogWorkload{Name: wl.Name(), About: wl.About()})
	}
	for _, name := range job.Policies() {
		p, err := job.GetPolicy(name)
		if err != nil {
			continue
		}
		cat.Policies = append(cat.Policies, catalogPolicy{Name: p.Name(), About: p.About()})
	}
	writeJSON(w, cat)
}

// cacheDoc is the /cache document.
type cacheDoc struct {
	Stats runner.Stats `json:"stats"`
	Dir   string       `json:"dir,omitempty"`
	// Entries and Bytes describe the persistent layer (absent without one).
	Entries int   `json:"entries,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	doc := cacheDoc{Stats: s.ex.CacheStats(), Dir: s.ex.CacheDir()}
	if doc.Dir != "" {
		disk, err := runner.OpenDiskCache(doc.Dir)
		if err == nil {
			if entries, bytes, ierr := disk.Info(); ierr == nil {
				doc.Entries, doc.Bytes = entries, bytes
			}
		}
	}
	writeJSON(w, doc)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
