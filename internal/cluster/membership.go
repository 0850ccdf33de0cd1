package cluster

import (
	"fmt"
	"sort"
)

// MemberOp is one side of a planned membership change.
type MemberOp string

const (
	// OpDrain gracefully removes a node from the placeable set: it stops
	// receiving new leases immediately but any lease it is serving runs
	// to release — the planned counterpart of NodeDown's kill.
	OpDrain MemberOp = "drain"
	// OpJoin returns a drained node to the placeable set.
	OpJoin MemberOp = "join"
)

// MemberEvent is one planned membership change on the shared cluster's
// virtual clock.
type MemberEvent struct {
	Node int      `json:"node"`
	AtMS float64  `json:"atMS"`
	Op   MemberOp `json:"op"`
}

// MembershipPlan is a seeded, virtual-time schedule of planned node
// drains and joins for one shared cluster — the elastic counterpart of
// HealthSpec, which schedules the same state transitions as failures.
// It is pure data (it marshals into RunSpecs) and instantiates
// deterministically: the same plan against the same cluster size always
// yields the same event list.
//
// Explicit Events are taken verbatim: per node they must alternate
// drain, join, drain, … in time order (a node starts in service), with
// each join strictly after its drain; a trailing drain keeps the node
// out forever. Cycles > 0 additionally draws that many random
// drain/join cycles from a splitmix64 stream seeded by Seed — the same
// generator and draw order (gap, node, duration) as HealthSpec's random
// outages, so seeded churn and seeded failures are directly comparable.
// A draw that would overlap an existing absence of the same node is
// skipped (still consuming its draws).
type MembershipPlan struct {
	Seed      int64         `json:"seed,omitempty"`
	Events    []MemberEvent `json:"events,omitempty"`
	Cycles    int           `json:"cycles,omitempty"`
	MeanInMS  float64       `json:"meanInMS,omitempty"`
	MeanOutMS float64       `json:"meanOutMS,omitempty"`
}

// IsZero reports whether the plan schedules nothing.
func (m MembershipPlan) IsZero() bool {
	return len(m.Events) == 0 && m.Cycles == 0
}

// Validate reports structural problems with the plan for a cluster of
// the given size.
func (m MembershipPlan) Validate(size int) error {
	_, err := m.Instantiate(size)
	return err
}

// Instantiate expands the plan into the concrete membership event list
// for a cluster of the given size: explicit events validated and paired
// into absence windows (sharing the overlap rules with HealthSpec's
// outages), random cycles drawn, and the result sorted by
// (AtMS, Node, drain-before-join). A zero plan yields nil.
func (m MembershipPlan) Instantiate(size int) ([]MemberEvent, error) {
	if size < 1 {
		return nil, fmt.Errorf("cluster: membership plan needs a positive cluster size, got %d", size)
	}
	if m.Cycles < 0 {
		return nil, fmt.Errorf("cluster: negative membership cycle count %d", m.Cycles)
	}
	if m.Cycles > 0 {
		if !(m.MeanInMS > 0) || !validEventTime(m.MeanInMS) {
			return nil, fmt.Errorf("cluster: random membership cycles need a positive mean in-service time, got %g", m.MeanInMS)
		}
		if !(m.MeanOutMS > 0) || !validEventTime(m.MeanOutMS) {
			return nil, fmt.Errorf("cluster: random membership cycles need a positive mean drained time, got %g", m.MeanOutMS)
		}
	}
	for i, e := range m.Events {
		switch {
		case e.Node < 0 || e.Node >= size:
			return nil, fmt.Errorf("cluster: membership event %d: node %d out of range [0,%d)", i, e.Node, size)
		case !validEventTime(e.AtMS) || e.AtMS < 0:
			return nil, fmt.Errorf("cluster: membership event %d: instant %g invalid", i, e.AtMS)
		case e.Op != OpDrain && e.Op != OpJoin:
			return nil, fmt.Errorf("cluster: membership event %d: unknown op %q", i, e.Op)
		}
	}
	windows, err := memberWindows(m.Events)
	if err != nil {
		return nil, err
	}
	// The absence windows obey the same no-overlap rule as HealthSpec
	// outages; alternation already guarantees it for explicit events,
	// but the shared check keeps the two schedules validated identically.
	if err := checkOutageOverlap(windows); err != nil {
		return nil, err
	}
	events := append([]MemberEvent(nil), m.Events...)

	// Random cycles ride on a single splitmix64 stream: in-service gap,
	// node, drained duration per cycle, in that fixed draw order.
	g := healthRNG(m.Seed)
	admit := newDrawFilter(windows, m.Cycles, size)
	at := 0.0
	for i := 0; i < m.Cycles; i++ {
		at += g.exp(m.MeanInMS)
		node := int(g.next() % uint64(size))
		dur := g.exp(m.MeanOutMS)
		w := NodeEvent{Node: node, DownMS: at, UpMS: at + dur}
		if !admit(w) {
			continue
		}
		events = append(events,
			MemberEvent{Node: node, AtMS: w.DownMS, Op: OpDrain},
			MemberEvent{Node: node, AtMS: w.UpMS, Op: OpJoin},
		)
	}

	sort.SliceStable(events, func(a, b int) bool {
		if events[a].AtMS != events[b].AtMS {
			return events[a].AtMS < events[b].AtMS
		}
		if events[a].Node != events[b].Node {
			return events[a].Node < events[b].Node
		}
		return events[a].Op == OpDrain && events[b].Op == OpJoin
	})
	if len(events) == 0 {
		return nil, nil
	}
	return events, nil
}

// memberWindows pairs a node's alternating drain/join events into the
// absence windows they describe — the NodeEvent shape HealthSpec uses
// for outages, so the overlap validation is shared verbatim. A trailing
// drain becomes an open window (UpMS = 0: never back).
func memberWindows(events []MemberEvent) ([]NodeEvent, error) {
	byNode := map[int][]MemberEvent{}
	nodes := make([]int, 0, 4)
	for _, e := range events {
		if _, ok := byNode[e.Node]; !ok {
			nodes = append(nodes, e.Node)
		}
		byNode[e.Node] = append(byNode[e.Node], e)
	}
	sort.Ints(nodes)
	var windows []NodeEvent
	for _, n := range nodes {
		evs := byNode[n]
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].AtMS < evs[b].AtMS })
		open := -1.0
		for _, e := range evs {
			switch e.Op {
			case OpDrain:
				if open >= 0 {
					return nil, fmt.Errorf("cluster: node %d drained at %g while already drained at %g", n, e.AtMS, open)
				}
				open = e.AtMS
			case OpJoin:
				if open < 0 {
					return nil, fmt.Errorf("cluster: node %d joins at %g without a prior drain", n, e.AtMS)
				}
				if e.AtMS <= open {
					return nil, fmt.Errorf("cluster: node %d join at %g not after drain at %g", n, e.AtMS, open)
				}
				windows = append(windows, NodeEvent{Node: n, DownMS: open, UpMS: e.AtMS})
				open = -1
			}
		}
		if open >= 0 {
			windows = append(windows, NodeEvent{Node: n, DownMS: open, UpMS: 0})
		}
	}
	return windows, nil
}

// String renders the plan parameters on one deterministic line.
func (m MembershipPlan) String() string {
	if m.IsZero() {
		return "fixed membership"
	}
	out := ""
	for i, e := range m.Events {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("node %d %s @%g", e.Node, e.Op, e.AtMS)
	}
	if m.Cycles > 0 {
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%d seeded cycle(s) (seed %d, mean in %g ms, mean out %g ms)",
			m.Cycles, m.Seed, m.MeanInMS, m.MeanOutMS)
	}
	return out
}
