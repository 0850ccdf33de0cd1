package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/numeric"
)

// The seeded draws of HealthSpec and MembershipPlan admit a draw unless
// it overlaps a window of its node. The oracles below are the direct
// form of that rule — every draw tested against every earlier window,
// quadratic in the count — and Instantiate must agree with them exactly.

// quadraticHealth instantiates a HealthSpec whose explicit events are
// valid by testing each draw against all earlier outages.
func quadraticHealth(h HealthSpec, size int) []NodeEvent {
	events := append([]NodeEvent(nil), h.Events...)
	g := numeric.SplitMix(h.Seed)
	at := 0.0
	for i := 0; i < h.Failures; i++ {
		at += g.Exp(h.MeanUpMS)
		node := int(g.Next() % uint64(size))
		dur := g.Exp(h.MeanDownMS)
		ev := NodeEvent{Node: node, DownMS: at, UpMS: at + dur}
		if overlapsNode(events, ev) {
			continue
		}
		events = append(events, ev)
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].DownMS != events[b].DownMS {
			return events[a].DownMS < events[b].DownMS
		}
		return events[a].Node < events[b].Node
	})
	if len(events) == 0 {
		return nil
	}
	return events
}

// quadraticMembership is quadraticHealth's counterpart for a
// MembershipPlan whose explicit events are valid.
func quadraticMembership(m MembershipPlan, size int) []MemberEvent {
	windows, err := memberWindows(m.Events)
	if err != nil {
		panic(err)
	}
	events := append([]MemberEvent(nil), m.Events...)
	g := numeric.SplitMix(m.Seed)
	at := 0.0
	for i := 0; i < m.Cycles; i++ {
		at += g.Exp(m.MeanInMS)
		node := int(g.Next() % uint64(size))
		dur := g.Exp(m.MeanOutMS)
		w := NodeEvent{Node: node, DownMS: at, UpMS: at + dur}
		if overlapsNode(windows, w) {
			continue
		}
		windows = append(windows, w)
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
		return nil
	}
	return events
}

// randomWindows draws valid explicit windows on a cluster of the given
// size: per node disjoint, some touching, some open-ended, on the same
// millisecond scale as the tiny draw means so the two interact.
func randomWindows(rng *rand.Rand, size int) []NodeEvent {
	var out []NodeEvent
	free := make([]float64, size) // earliest start per node; -1 once open
	for k := rng.Intn(7); k > 0; k-- {
		n := rng.Intn(size)
		if free[n] < 0 {
			continue
		}
		down := free[n] + float64(rng.Intn(3))*rng.Float64()*3
		if rng.Intn(5) == 0 {
			out = append(out, NodeEvent{Node: n, DownMS: down})
			free[n] = -1
			continue
		}
		up := down + 0.01 + rng.Float64()*4
		out = append(out, NodeEvent{Node: n, DownMS: down, UpMS: up})
		free[n] = up
	}
	return out
}

func TestSeededDrawsMatchQuadraticOracle(t *testing.T) {
	const cases = 4800
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < cases; i++ {
		size := 1 + i%16
		windows := randomWindows(rng, size)
		seed, count := rng.Int63(), 1+rng.Intn(60)
		in, out := 0.01+rng.Float64()*2, 0.01+rng.Float64()*5

		h := HealthSpec{Seed: seed, Events: windows, Failures: count, MeanUpMS: in, MeanDownMS: out}
		got, err := h.Instantiate(size)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want := quadraticHealth(h, size); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: health schedule differs from the oracle:\ngot  %v\nwant %v", i, got, want)
		}

		var evs []MemberEvent
		for _, w := range windows {
			evs = append(evs, MemberEvent{Node: w.Node, AtMS: w.DownMS, Op: OpDrain})
			if w.UpMS != 0 {
				evs = append(evs, MemberEvent{Node: w.Node, AtMS: w.UpMS, Op: OpJoin})
			}
		}
		m := MembershipPlan{Seed: seed, Events: evs, Cycles: count, MeanInMS: in, MeanOutMS: out}
		gotM, err := m.Instantiate(size)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want := quadraticMembership(m, size); !reflect.DeepEqual(gotM, want) {
			t.Fatalf("case %d: membership schedule differs from the oracle:\ngot  %v\nwant %v", i, gotM, want)
		}
	}
}

// BenchmarkMembershipCycles instantiates 80,000 seeded drain/join cycles
// on an 8-node cluster, the count at which testing every draw against
// every earlier window took seconds.
func BenchmarkMembershipCycles(b *testing.B) {
	m := MembershipPlan{Seed: 1, Cycles: 80000, MeanInMS: 1, MeanOutMS: 5}
	for i := 0; i < b.N; i++ {
		if _, err := m.Instantiate(8); err != nil {
			b.Fatal(err)
		}
	}
}
