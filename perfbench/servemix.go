package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/spec"
)

// serveCacheBytes caps the serve-mix cache directory: small enough that
// one-off results keep evicting older entries, large enough to hold the
// recent one-offs the restart phase replays.
const serveCacheBytes = 256 << 10

// blockSize is the number of consecutive requests one serve-mix operation
// covers: wall_s is the median time a block takes from its first send to
// its last reply.
const blockSize = 100

// Restart phase: a seeded sample of restartReplays among the last
// restartWindow one-offs is replayed against a fresh executor and server
// on the same cache directory, restartRounds times.
const (
	restartWindow  = 48
	restartReplays = 40
	restartRounds  = 100
)

// server is an in-process serve.Server on a loopback socket. In traced
// runs the handler is wrapped in a "serve" span whose parent the client
// passes in request headers.
type server struct {
	srv  *http.Server
	done chan error
	url  string
}

func startServer(e *env, ex *spec.Executor) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := serve.New(ex).Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e.tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Span"))
		op, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Op"))
		lane, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Lane"))
		id := e.tr.begin(parent, op, lane, "serve", "handler "+r.URL.Path)
		h.ServeHTTP(w, r)
		e.tr.end(id)
	})
	s := &server{srv: &http.Server{Handler: wrapped}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the server and waits for its accept loop to return.
func (s *server) stop() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// post sends one RunSpec to /run inside an "http" span and returns the
// status, body and round-trip latency.
func post(e *env, c *http.Client, url string, body []byte, op, lane int) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/run", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	id := e.tr.begin(0, op, lane, "http", "POST /run")
	if e.tr != nil {
		req.Header.Set("X-Perfbench-Span", strconv.Itoa(id))
		req.Header.Set("X-Perfbench-Op", strconv.Itoa(op))
		req.Header.Set("X-Perfbench-Lane", strconv.Itoa(lane))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		e.tr.end(id)
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	e.tr.end(id)
	return resp.StatusCode, out, d, err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
}

// served is one answered serve-mix request.
type served struct {
	body       []byte
	class      string // generator class: hot, uncached or oneoff
	latency    string // hit, miss or shared (sent while its first send was in flight)
	start, end time.Time
	status     int
	sum        string
	err        error
}

// serveExecutor builds the serve-mix executor: two workers per run, one
// shared two-slot pool, and the capped persistent cache directory.
func serveExecutor(dir string) (*spec.Executor, error) {
	return spec.NewExecutor(spec.ExecutorOptions{Jobs: 2, Pool: runner.NewPool(2), CacheDir: dir, CacheMaxBytes: serveCacheBytes})
}

// measureServeMix is serve-mix: two closed-loop clients POST the seed's
// request sequence to an in-process server for the timed phase; a restart
// phase then opens a new executor and server on the same cache directory
// and replays a seeded sample of recent one-offs, served from disk. Every
// response is compared with an in-process Executor.Run of the same spec.
func measureServeMix(e *env) error {
	dir := filepath.Join(e.dir, "serve-cache")
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		ex, err := serveExecutor(dir)
		if err != nil {
			return err
		}
		_ = serve.New(ex).Handler()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.setup = append(e.setup, time.Since(start).Seconds())
		if err := ln.Close(); err != nil {
			return err
		}
	}
	gen, err := newMix(e.seed)
	if err != nil {
		return err
	}
	ex, err := serveExecutor(dir)
	if err != nil {
		return err
	}
	srv, err := startServer(e, ex)
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()

	var (
		mu      sync.Mutex
		records []*served
		hotSeen = map[string]int{} // 1: first send in flight, 2: answered
		genErr  error
	)
	if err := e.beginTimed(); err != nil {
		_ = srv.stop() // the profiler error is the one to report
		return err
	}
	var wg sync.WaitGroup
	for lane := 1; lane <= 2; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(e.deadline()) {
				mu.Lock()
				req, err := gen.next()
				if err != nil {
					genErr = err
					mu.Unlock()
					return
				}
				rec := &served{body: req.body, class: req.class, latency: "miss"}
				if req.class == classHot {
					switch hotSeen[string(req.body)] {
					case 0:
						hotSeen[string(req.body)] = 1
					case 1:
						rec.latency = "shared"
					case 2:
						rec.latency = "hit"
					}
				}
				records = append(records, rec)
				op := len(records)
				mu.Unlock()

				rec.start = time.Now()
				status, out, _, err := post(e, client, srv.url, req.body, op, lane)
				rec.end = time.Now()
				rec.status, rec.sum, rec.err = status, sha(out), err
				if req.class == classHot && rec.latency == "miss" {
					mu.Lock()
					hotSeen[string(req.body)] = 2
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	e.endTimed(float64(len(records))/blockSize, float64(len(records)))
	if err := srv.stop(); err != nil {
		return err
	}
	if genErr != nil {
		return genErr
	}

	var oneOffs [][]byte
	for _, r := range records {
		d := r.end.Sub(r.start)
		e.add(&e.req, d)
		switch r.latency {
		case "hit":
			e.add(&e.hit, d)
		case "miss":
			e.add(&e.miss, d)
		}
		if r.class == classOneOff {
			oneOffs = append(oneOffs, r.body)
		}
	}
	for b := 0; (b+1)*blockSize <= len(records); b++ {
		first, last := records[b*blockSize].start, records[b*blockSize].end
		for _, r := range records[b*blockSize : (b+1)*blockSize] {
			if r.start.Before(first) {
				first = r.start
			}
			if r.end.After(last) {
				last = r.end
			}
		}
		e.opWall = append(e.opWall, last.Sub(first).Seconds())
	}

	// Restart: new executors and servers on the same directory, each
	// replaying the same sample from both lanes. A round's latencies count
	// as disk hits when its executor served every request from disk.
	sample := restartSample(e.seed, oneOffs, restartWindow, restartReplays)
	settle()
	for round := 0; round < restartRounds; round++ {
		ex, err := serveExecutor(dir)
		if err != nil {
			return err
		}
		srv, err := startServer(e, ex)
		if err != nil {
			return err
		}
		replies := make([]*served, len(sample))
		lat := make([]time.Duration, len(sample))
		var wg sync.WaitGroup
		for lane := 1; lane <= 2; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lane - 1; i < len(sample); i += 2 {
					status, out, d, err := post(e, client, srv.url, sample[i], e.tr.newOp(), lane)
					replies[i] = &served{body: sample[i], class: classOneOff, status: status, sum: sha(out), err: err}
					lat[i] = d
				}
			}()
		}
		wg.Wait()
		if err := srv.stop(); err != nil {
			return err
		}
		if st := ex.CacheStats(); st.DiskMisses == 0 && st.DiskHits == int64(len(sample)) {
			for _, d := range lat {
				e.add(&e.diskHit, d)
			}
		}
		records = append(records, replies...)
	}
	return verifyServed(e, records)
}

// verifyServed compares every response with an in-process Executor.Run
// of the same spec on a memory-only reference executor, computing each
// distinct spec once on two workers.
func verifyServed(e *env, records []*served) error {
	ref, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 2})
	if err != nil {
		return err
	}
	want := map[string]string{}
	var bodies []string
	for _, r := range records {
		if _, ok := want[string(r.body)]; !ok {
			want[string(r.body)] = ""
			bodies = append(bodies, string(r.body))
		}
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(bodies) {
					mu.Unlock()
					return
				}
				body := bodies[next]
				next++
				mu.Unlock()
				sum := "error"
				if rs, err := spec.Decode(bytes.NewReader([]byte(body))); err == nil {
					var out bytes.Buffer
					if err := ref.Run(context.Background(), *rs, &out); err == nil {
						sum = sha(out.Bytes())
					}
				}
				mu.Lock()
				want[body] = sum
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, r := range records {
		switch {
		case r.err != nil:
			e.outcome(r.err)
		case r.status != http.StatusOK:
			e.outcome(fmt.Errorf("POST /run %s: status %d", r.body, r.status))
		case r.sum != want[string(r.body)]:
			e.outcome(fmt.Errorf("POST /run %s: response differs from in-process Executor.Run", r.body))
		default:
			e.outcome(nil)
		}
	}
	return nil
}
