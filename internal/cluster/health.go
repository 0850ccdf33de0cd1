package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/numeric"
)

// NodeEvent is one node outage on the shared cluster's virtual clock:
// the node goes down at DownMS and (optionally) comes back at UpMS.
// UpMS = 0 means the node never returns.
type NodeEvent struct {
	Node   int     `json:"node"`
	DownMS float64 `json:"downMS"`
	UpMS   float64 `json:"upMS,omitempty"`
}

// HealthSpec is a seeded, virtual-time schedule of node down/up events
// for one shared cluster. It is pure data (it marshals into RunSpecs)
// and instantiates deterministically: the same spec against the same
// cluster size always yields the same event list.
//
// Explicit Events are taken verbatim. Failures > 0 additionally draws
// that many random outages from a splitmix64 stream seeded by Seed:
// outage starts are exponential with mean MeanUpMS, durations
// exponential with mean MeanDownMS, and the struck node is drawn
// uniformly. A draw that would overlap an earlier outage of the same
// node is skipped (still consuming its draws), so the instantiated
// schedule never has a node going down twice before coming up.
type HealthSpec struct {
	Seed       int64       `json:"seed,omitempty"`
	Events     []NodeEvent `json:"events,omitempty"`
	Failures   int         `json:"failures,omitempty"`
	MeanUpMS   float64     `json:"meanUpMS,omitempty"`
	MeanDownMS float64     `json:"meanDownMS,omitempty"`
}

// MaxDraws caps the random draws a seeded schedule may ask for
// (HealthSpec.Failures, MembershipPlan.Cycles). Instantiate runs while a
// spec is still being decoded, before any execution deadline applies,
// and allocates in proportion to the count, so without a cap a few bytes
// of input could ask for gigabytes. The largest count any program or
// test uses is 100,000; the cap leaves twice that.
const MaxDraws = 200_000

// IsZero reports whether the spec schedules nothing.
func (h HealthSpec) IsZero() bool {
	return len(h.Events) == 0 && h.Failures == 0
}

// Validate reports structural problems with the schedule for a cluster
// of the given size.
func (h HealthSpec) Validate(size int) error {
	_, err := h.Instantiate(size)
	return err
}

func validEventTime(t float64) bool {
	return !math.IsNaN(t) && !math.IsInf(t, 0)
}

// Instantiate expands the spec into the concrete outage list for a
// cluster of the given size: explicit events validated, random outages
// drawn, overlaps of explicit events rejected (and of random draws
// skipped), sorted by (DownMS, Node). A zero spec yields nil.
func (h HealthSpec) Instantiate(size int) ([]NodeEvent, error) {
	if size < 1 {
		return nil, fmt.Errorf("cluster: health schedule needs a positive cluster size, got %d", size)
	}
	if h.Failures < 0 {
		return nil, fmt.Errorf("cluster: negative failure count %d", h.Failures)
	}
	if h.Failures > MaxDraws {
		return nil, fmt.Errorf("cluster: failures %d above the cap of %d", h.Failures, MaxDraws)
	}
	if h.Failures > 0 {
		if !(h.MeanUpMS > 0) || !validEventTime(h.MeanUpMS) {
			return nil, fmt.Errorf("cluster: random failures need a positive mean up time, got %g", h.MeanUpMS)
		}
		if !(h.MeanDownMS > 0) || !validEventTime(h.MeanDownMS) {
			return nil, fmt.Errorf("cluster: random failures need a positive mean down time, got %g", h.MeanDownMS)
		}
	}
	events := make([]NodeEvent, 0, len(h.Events)+h.Failures)
	for i, e := range h.Events {
		switch {
		case e.Node < 0 || e.Node >= size:
			return nil, fmt.Errorf("cluster: health event %d: node %d out of range [0,%d)", i, e.Node, size)
		case !validEventTime(e.DownMS) || e.DownMS < 0:
			return nil, fmt.Errorf("cluster: health event %d: down time %g invalid", i, e.DownMS)
		case !validEventTime(e.UpMS) || e.UpMS < 0:
			return nil, fmt.Errorf("cluster: health event %d: up time %g invalid", i, e.UpMS)
		case e.UpMS != 0 && e.UpMS <= e.DownMS:
			return nil, fmt.Errorf("cluster: health event %d: node %d up at %g not after down at %g",
				i, e.Node, e.UpMS, e.DownMS)
		}
		events = append(events, e)
	}
	if err := checkOutageOverlap(events); err != nil {
		return nil, err
	}

	// Random outages ride on a single splitmix64 stream: start gap, node,
	// duration per failure, in that fixed draw order.
	g := numeric.SplitMix(h.Seed)
	admit := newDrawFilter(events, h.Failures, size)
	at := 0.0
	for i := 0; i < h.Failures; i++ {
		at += g.Exp(h.MeanUpMS)
		node := int(g.Next() % uint64(size))
		dur := g.Exp(h.MeanDownMS)
		ev := NodeEvent{Node: node, DownMS: at, UpMS: at + dur}
		if admit(ev) {
			events = append(events, ev)
		}
	}

	sort.SliceStable(events, func(a, b int) bool {
		if events[a].DownMS != events[b].DownMS {
			return events[a].DownMS < events[b].DownMS
		}
		return events[a].Node < events[b].Node
	})
	if len(events) == 0 {
		return nil, nil
	}
	return events, nil
}

// overlapsNode reports whether ev intersects an existing outage of the
// same node.
func overlapsNode(events []NodeEvent, ev NodeEvent) bool {
	for _, e := range events {
		if e.Node != ev.Node {
			continue
		}
		evEnd, eEnd := ev.UpMS, e.UpMS
		if ev.UpMS == 0 {
			evEnd = math.Inf(1)
		}
		if e.UpMS == 0 {
			eEnd = math.Inf(1)
		}
		if ev.DownMS < eEnd && e.DownMS < evEnd {
			return true
		}
	}
	return false
}

// newDrawFilter returns the admission test for the given number of
// seeded draws on a cluster of size nodes, over a schedule's validated
// explicit windows: a draw is admitted, and joins the schedule, unless
// overlapsNode finds it intersecting a window of its node — explicit or
// an earlier admitted draw. A node's windows are disjoint, so ordered by
// start they are ordered by end too, and draw starts never decrease. A
// window that has ended by a draw's start therefore overlaps no later
// draw and is dropped, and of the windows left only the earliest can
// overlap the draw: the others start after it ends. That earliest window
// is the node's live admitted draw or else its first explicit one, so
// each draw is tested against at most two windows and the draws cost
// O(draws), not O(draws²). The per-node state is a slice indexed by node
// when the cluster has no more nodes than the schedule has windows and
// draws, and a map otherwise, so its memory never exceeds the input's.
func newDrawFilter(windows []NodeEvent, draws, size int) func(NodeEvent) bool {
	type nodeWindows struct {
		explicit []NodeEvent // by start, ended ones dropped
		drawn    NodeEvent   // latest admitted draw that can still overlap
		hasDrawn bool
	}
	var dense []nodeWindows
	var sparse map[int]*nodeWindows
	if size <= draws+len(windows) {
		dense = make([]nodeWindows, size)
	} else {
		sparse = map[int]*nodeWindows{}
	}
	node := func(n int) *nodeWindows {
		if dense != nil {
			return &dense[n]
		}
		nw := sparse[n]
		if nw == nil {
			nw = &nodeWindows{}
			sparse[n] = nw
		}
		return nw
	}
	byStart := append([]NodeEvent(nil), windows...)
	sort.SliceStable(byStart, func(a, b int) bool { return byStart[a].DownMS < byStart[b].DownMS })
	for _, w := range byStart {
		nw := node(w.Node)
		nw.explicit = append(nw.explicit, w)
	}
	ended := func(w NodeEvent, at float64) bool { return w.UpMS != 0 && w.UpMS <= at }
	return func(ev NodeEvent) bool {
		nw := node(ev.Node)
		for len(nw.explicit) > 0 && ended(nw.explicit[0], ev.DownMS) {
			nw.explicit = nw.explicit[1:]
		}
		near := make([]NodeEvent, 0, 2)
		if len(nw.explicit) > 0 {
			near = append(near, nw.explicit[0])
		}
		if nw.hasDrawn && !ended(nw.drawn, ev.DownMS) {
			near = append(near, nw.drawn)
		}
		if overlapsNode(near, ev) {
			return false
		}
		// An admitted draw that ends where it starts can overlap no later
		// draw, so it is not kept; any other starts after the node's
		// earlier draws have all ended, so it replaces them.
		if !ended(ev, ev.DownMS) {
			nw.drawn, nw.hasDrawn = ev, true
		}
		return true
	}
}

// checkOutageOverlap rejects explicit events that overlap per node.
func checkOutageOverlap(events []NodeEvent) error {
	for i, e := range events {
		if overlapsNode(events[:i], e) {
			return fmt.Errorf("cluster: health event %d: node %d outage at %g overlaps an earlier one",
				i, e.Node, e.DownMS)
		}
	}
	return nil
}

// String renders the schedule parameters on one deterministic line.
func (h HealthSpec) String() string {
	if h.IsZero() {
		return "no node faults"
	}
	out := ""
	for i, e := range h.Events {
		if i > 0 {
			out += ", "
		}
		if e.UpMS == 0 {
			out += fmt.Sprintf("node %d down @%g (permanent)", e.Node, e.DownMS)
		} else {
			out += fmt.Sprintf("node %d down @%g up @%g", e.Node, e.DownMS, e.UpMS)
		}
	}
	if h.Failures > 0 {
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%d seeded outage(s) (seed %d, mean up %g ms, mean down %g ms)",
			h.Failures, h.Seed, h.MeanUpMS, h.MeanDownMS)
	}
	return out
}
