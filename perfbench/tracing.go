package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one operation share Op; Parent is the enclosing span's ID (0 at
// the root).
type span struct {
	ID, Parent, Op int
	Layer, Name    string
	Tid            int
	Start, End     time.Duration // since the tracer started
}

// tracer records spans in memory for the traced run. A nil tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation ID.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent, op, tid int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name, Tid: tid, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(parent, op, tid int, layer, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name, Tid: tid, Start: s, End: s + d})
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part of each span its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// chromeEvent is one trace-event "complete" record, in the same shape as
// the program's virtual-time traces so both open in Perfetto; timestamps
// here are host microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Layer + " " + s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Tid,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
