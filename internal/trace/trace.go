// Package trace records per-rank virtual-time execution timelines of
// parallel programs run under internal/mpi, and derives the quantities
// Theorem 1 reasons about from them: the per-rank decomposition
//
//	T = compute + communication (+ waiting) + idle
//
// the critical-path overhead To (the paper's total parallel overhead),
// and a Gantt-style ASCII rendering for inspection.
//
// Tracing is optional: pass a *Trace via mpi.Options. The recorder is
// safe for concurrent use (live-engine ranks run in parallel in real
// time) and deterministic in content (span order is normalized before
// reporting).
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a span of virtual time.
type Kind uint8

// Span kinds.
const (
	KindCompute Kind = iota
	KindSend
	KindRecv
	KindWait // blocked waiting for a message or collective payload
	KindBcast
	KindBarrier
	KindCheckpoint // coordinated checkpoint write to stable storage
	KindRecover    // rollback window: detection + restart after a crash
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindWait:
		return "wait"
	case KindBcast:
		return "bcast"
	case KindBarrier:
		return "barrier"
	case KindCheckpoint:
		return "checkpoint"
	case KindRecover:
		return "recover"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// glyph is the Gantt fill character per kind.
func (k Kind) glyph() byte {
	switch k {
	case KindCompute:
		return '#'
	case KindSend:
		return '>'
	case KindRecv:
		return '<'
	case KindWait:
		return '.'
	case KindBcast:
		return 'B'
	case KindBarrier:
		return '|'
	case KindCheckpoint:
		return 'C'
	case KindRecover:
		return 'R'
	default:
		return '?'
	}
}

// Span is one interval of a rank's virtual timeline.
type Span struct {
	Rank    int
	Kind    Kind
	StartMS float64
	EndMS   float64
	Bytes   int // payload size for communication spans, 0 otherwise
	Peer    int // communication partner or root, -1 otherwise
}

// Duration returns the span length.
func (s Span) Duration() float64 { return s.EndMS - s.StartMS }

// Trace accumulates spans from one program run.
type Trace struct {
	mu    sync.Mutex
	spans []Span
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Add records a span. Zero-length spans are dropped.
func (t *Trace) Add(s Span) {
	if s.EndMS <= s.StartMS {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the recorded spans sorted by
// (rank, start, end, kind, peer, bytes) — a total order over every field,
// so the reported sequence is deterministic regardless of goroutine
// scheduling and identical across execution engines that record the same
// spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Rank != b.Rank:
			return a.Rank < b.Rank
		case a.StartMS != b.StartMS:
			return a.StartMS < b.StartMS
		case a.EndMS != b.EndMS:
			return a.EndMS < b.EndMS
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Peer != b.Peer:
			return a.Peer < b.Peer
		default:
			return a.Bytes < b.Bytes
		}
	})
	return out
}

// Breakdown is the per-rank time decomposition.
type Breakdown struct {
	Rank      int
	ComputeMS float64
	CommMS    float64 // send+recv+bcast+barrier busy time
	WaitMS    float64 // blocked on payloads / stragglers
	EndMS     float64 // the rank's last span end
	IdleMS    float64 // makespan minus everything above
}

// Breakdowns aggregates the trace per rank. Ranks with no spans are
// absent. Idle is measured against the global makespan, so a rank that
// finishes early shows the tail as idle.
func (t *Trace) Breakdowns() []Breakdown {
	spans := t.Spans()
	byRank := map[int]*Breakdown{}
	var makespan float64
	for _, s := range spans {
		b, ok := byRank[s.Rank]
		if !ok {
			b = &Breakdown{Rank: s.Rank}
			byRank[s.Rank] = b
		}
		d := s.Duration()
		switch s.Kind {
		case KindCompute:
			b.ComputeMS += d
		case KindWait:
			b.WaitMS += d
		default:
			b.CommMS += d
		}
		if s.EndMS > b.EndMS {
			b.EndMS = s.EndMS
		}
		if s.EndMS > makespan {
			makespan = s.EndMS
		}
	}
	out := make([]Breakdown, 0, len(byRank))
	for _, b := range byRank {
		b.IdleMS = makespan - b.ComputeMS - b.CommMS - b.WaitMS
		if b.IdleMS < 0 {
			b.IdleMS = 0
		}
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// CriticalOverhead estimates the paper's total parallel overhead To from
// the trace: the maximum per-rank non-compute time (communication + wait
// + idle relative to the makespan). For bulk-synchronous programs this is
// the trace-level counterpart of the analytic To(n) models.
func (t *Trace) CriticalOverhead() float64 {
	var worst float64
	for _, b := range t.Breakdowns() {
		o := b.CommMS + b.WaitMS + b.IdleMS
		if o > worst {
			worst = o
		}
	}
	return worst
}

// Makespan returns the latest span end across ranks.
func (t *Trace) Makespan() float64 {
	var m float64
	for _, s := range t.Spans() {
		if s.EndMS > m {
			m = s.EndMS
		}
	}
	return m
}

// Gantt renders an ASCII timeline: one row per rank, width columns,
// spans drawn with per-kind glyphs (later spans overwrite earlier ones in
// a cell; at this resolution that is fine for inspection).
func (t *Trace) Gantt(width int) string {
	if width < 20 {
		width = 20
	}
	spans := t.Spans()
	if len(spans) == 0 {
		return "(empty trace)\n"
	}
	makespan := t.Makespan()
	if makespan <= 0 {
		return "(zero-length trace)\n"
	}
	maxRank := 0
	for _, s := range spans {
		if s.Rank > maxRank {
			maxRank = s.Rank
		}
	}
	rows := make([][]byte, maxRank+1)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range spans {
		lo := int(s.StartMS / makespan * float64(width))
		hi := int(math.Ceil(s.EndMS / makespan * float64(width)))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		g := s.Kind.glyph()
		for c := lo; c < hi; c++ {
			rows[s.Rank][c] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time 0 .. %.2f ms\n", makespan)
	for r, row := range rows {
		fmt.Fprintf(&b, "rank %2d |%s|\n", r, string(row))
	}
	b.WriteString("legend: # compute  > send  < recv  . wait  B bcast  | barrier  C checkpoint  R recover\n")
	return b.String()
}
