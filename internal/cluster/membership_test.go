package cluster

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestMembershipPlanInstantiateExplicit(t *testing.T) {
	m := MembershipPlan{Events: []MemberEvent{
		{Node: 3, AtMS: 200, Op: OpJoin},
		{Node: 1, AtMS: 50, Op: OpDrain},
		{Node: 3, AtMS: 100, Op: OpDrain},
	}}
	got, err := m.Instantiate(8)
	if err != nil {
		t.Fatal(err)
	}
	want := []MemberEvent{
		{Node: 1, AtMS: 50, Op: OpDrain},
		{Node: 3, AtMS: 100, Op: OpDrain},
		{Node: 3, AtMS: 200, Op: OpJoin},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Instantiate = %+v, want %+v", got, want)
	}
}

func TestMembershipPlanInstantiateRejects(t *testing.T) {
	cases := []struct {
		name string
		m    MembershipPlan
		frag string
	}{
		{"node out of range", MembershipPlan{Events: []MemberEvent{{Node: 8, AtMS: 1, Op: OpDrain}}}, "out of range"},
		{"negative node", MembershipPlan{Events: []MemberEvent{{Node: -1, AtMS: 1, Op: OpDrain}}}, "out of range"},
		{"nan instant", MembershipPlan{Events: []MemberEvent{{Node: 0, AtMS: math.NaN(), Op: OpDrain}}}, "invalid"},
		{"bad op", MembershipPlan{Events: []MemberEvent{{Node: 0, AtMS: 1, Op: "evict"}}}, "unknown op"},
		{"join first", MembershipPlan{Events: []MemberEvent{{Node: 0, AtMS: 1, Op: OpJoin}}}, "without a prior drain"},
		{"join not after drain", MembershipPlan{Events: []MemberEvent{
			{Node: 0, AtMS: 5, Op: OpDrain}, {Node: 0, AtMS: 5, Op: OpJoin},
		}}, "not after"},
		{"double drain", MembershipPlan{Events: []MemberEvent{
			{Node: 0, AtMS: 5, Op: OpDrain}, {Node: 0, AtMS: 9, Op: OpDrain},
		}}, "already drained"},
		{"negative cycles", MembershipPlan{Cycles: -1}, "negative membership cycle"},
		{"cycles without means", MembershipPlan{Cycles: 2}, "mean in-service time"},
		{"zero size", MembershipPlan{}, "positive cluster size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			size := 8
			if tc.name == "zero size" {
				size = 0
			}
			if err := tc.m.Validate(size); err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.frag)
			}
		})
	}
}

func TestMembershipPlanSeededDeterministic(t *testing.T) {
	m := MembershipPlan{Seed: 7, Cycles: 5, MeanInMS: 300, MeanOutMS: 80}
	a, err := m.Instantiate(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Instantiate(16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seeded schedules differ between instantiations")
	}
	if len(a) == 0 || len(a) > 10 || len(a)%2 != 0 {
		t.Fatalf("got %d events, want an even count in 2..10", len(a))
	}
	open := map[int]bool{}
	for i, e := range a {
		if e.Node < 0 || e.Node >= 16 {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
		if i > 0 && e.AtMS < a[i-1].AtMS {
			t.Fatalf("events unsorted at %d: %+v", i, a)
		}
		switch e.Op {
		case OpDrain:
			if open[e.Node] {
				t.Fatalf("node %d drained twice: %+v", e.Node, a)
			}
			open[e.Node] = true
		case OpJoin:
			if !open[e.Node] {
				t.Fatalf("node %d joins while in service: %+v", e.Node, a)
			}
			open[e.Node] = false
		}
	}
	// A different seed must move the schedule.
	m2 := m
	m2.Seed = 8
	c, err := m2.Instantiate(16)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seed change did not perturb the schedule")
	}
}

// TestMembershipPlanInstantiateAllocations bounds what a seeded plan at
// the draw cap costs to instantiate, which every decode of a jobstream
// spec pays before the request reaches the runner pool: the event slice
// is sized once (2·Cycles events of 32 bytes, 12.8 MB here) instead of
// grown by append, which allocated 56 MB.
func TestMembershipPlanInstantiateAllocations(t *testing.T) {
	m := MembershipPlan{Seed: 7, Cycles: MaxDraws, MeanInMS: 300, MeanOutMS: 80}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	events, err := m.Instantiate(16)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events drawn")
	}
	const limitMB = 20
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= limitMB {
		t.Errorf("instantiating %d cycles allocated %.1f MB, want < %d MB", m.Cycles, mb, limitMB)
	}
}

func TestMembershipPlanZero(t *testing.T) {
	var m MembershipPlan
	if !m.IsZero() {
		t.Fatal("zero plan not IsZero")
	}
	evs, err := m.Instantiate(4)
	if err != nil || evs != nil {
		t.Fatalf("zero plan instantiated to %v, %v", evs, err)
	}
	if m.String() != "fixed membership" {
		t.Fatalf("String = %q", m.String())
	}
}

func TestAllocatorDrainIsGraceful(t *testing.T) {
	cl := allocCluster(t)
	a, err := NewAllocator(cl, AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := a.Acquire("alice", []int{4, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Draining a leased node leaves the lease whole; the node just stops
	// being placeable once the lease ends.
	if err := a.NodeDrain(1, 10); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.Ranks, []int{4, 1}) {
		t.Fatalf("drain disturbed the lease: %v", l.Ranks)
	}
	if !a.Holds(l) || draining(a) != 1 || !a.IsDraining(1) {
		t.Fatalf("drain state wrong: holds=%v draining=%d", a.Holds(l), draining(a))
	}
	if err := a.Release(l, 50); err != nil {
		t.Fatal(err)
	}
	// Post-release the node sits drained, not free.
	if a.Free() != 7 {
		t.Fatalf("Free = %d, want 7 (node 1 drained)", a.Free())
	}
	for _, r := range a.FreeRanks() {
		if r == 1 {
			t.Fatal("draining node listed free")
		}
	}
	if _, err := a.Acquire("bob", []int{1}, 60); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("Acquire on draining node = %v, want draining error", err)
	}

	// Join returns it to service.
	if err := a.NodeJoin(1, 100); err != nil {
		t.Fatal(err)
	}
	if a.Free() != 8 || draining(a) != 0 {
		t.Fatalf("Free/draining after join = %d/%d, want 8/0", a.Free(), draining(a))
	}
	if _, err := a.Acquire("bob", []int{1}, 101); err != nil {
		t.Fatalf("Acquire after NodeJoin: %v", err)
	}
}

func TestAllocatorDrainErrors(t *testing.T) {
	cl := allocCluster(t)
	a, err := NewAllocator(cl, AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.NodeDrain(99, 0); err == nil {
		t.Fatal("out-of-range NodeDrain succeeded")
	}
	if err := a.NodeJoin(0, 0); err == nil {
		t.Fatal("NodeJoin of in-service node succeeded")
	}
	if err := a.NodeDrain(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.NodeDrain(0, 11); err == nil {
		t.Fatal("double NodeDrain succeeded")
	}
	if err := a.NodeJoin(0, 5); err == nil {
		t.Fatal("NodeJoin with time going backwards succeeded")
	}
	// Drain and down are orthogonal: both must clear.
	if err := a.NodeDown(0, 20); err != nil {
		t.Fatal(err)
	}
	if err := a.NodeJoin(0, 30); err != nil {
		t.Fatal(err)
	}
	if a.Free() != 7 {
		t.Fatalf("joined-but-down node counted free: Free = %d", a.Free())
	}
	if err := a.NodeUp(0, 40); err != nil {
		t.Fatal(err)
	}
	if a.Free() != 8 {
		t.Fatalf("Free = %d, want 8", a.Free())
	}
}

func TestAllocatorDownWithin(t *testing.T) {
	cl := allocCluster(t)
	a, err := NewAllocator(cl, AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// No outlook: nothing forecast.
	if a.DownWithin(0, 0, 1000) {
		t.Fatal("empty outlook forecast an outage")
	}
	a.SetOutlook([]NodeEvent{
		{Node: 2, DownMS: 100, UpMS: 200},
		{Node: 5, DownMS: 400}, // never back
	})
	cases := []struct {
		node        int
		from, until float64
		want        bool
	}{
		{2, 0, 50, false},    // before the outage
		{2, 0, 100, false},   // half-open: touching the start doesn't intersect
		{2, 0, 101, true},    // crosses the start
		{2, 150, 160, true},  // inside
		{2, 200, 300, false}, // back up at 200
		{2, 199, 300, true},  // still down at 199
		{5, 0, 400, false},   // before the permanent outage
		{5, 500, 501, true},  // permanent outage never ends
		{3, 0, 1e9, false},   // other nodes unaffected
	}
	for _, tc := range cases {
		if got := a.DownWithin(tc.node, tc.from, tc.until); got != tc.want {
			t.Errorf("DownWithin(%d, %g, %g) = %v, want %v", tc.node, tc.from, tc.until, got, tc.want)
		}
	}
}

// draining counts the nodes between NodeDrain and NodeJoin.
func draining(a *Allocator) int {
	n := 0
	for node := range a.drain {
		if a.IsDraining(node) {
			n++
		}
	}
	return n
}
