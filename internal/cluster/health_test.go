package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestHealthSpecInstantiateExplicit(t *testing.T) {
	h := HealthSpec{Events: []NodeEvent{
		{Node: 3, DownMS: 100, UpMS: 200},
		{Node: 1, DownMS: 50},
		{Node: 3, DownMS: 300, UpMS: 400},
	}}
	got, err := h.Instantiate(8)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeEvent{
		{Node: 1, DownMS: 50},
		{Node: 3, DownMS: 100, UpMS: 200},
		{Node: 3, DownMS: 300, UpMS: 400},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Instantiate = %+v, want %+v", got, want)
	}
}

func TestHealthSpecInstantiateRejects(t *testing.T) {
	cases := []struct {
		name string
		h    HealthSpec
		frag string
	}{
		{"node out of range", HealthSpec{Events: []NodeEvent{{Node: 8, DownMS: 1}}}, "out of range"},
		{"negative node", HealthSpec{Events: []NodeEvent{{Node: -1, DownMS: 1}}}, "out of range"},
		{"nan down", HealthSpec{Events: []NodeEvent{{Node: 0, DownMS: math.NaN()}}}, "invalid"},
		{"inf up", HealthSpec{Events: []NodeEvent{{Node: 0, DownMS: 1, UpMS: math.Inf(1)}}}, "invalid"},
		{"up before down", HealthSpec{Events: []NodeEvent{{Node: 0, DownMS: 10, UpMS: 5}}}, "not after"},
		{"overlap", HealthSpec{Events: []NodeEvent{
			{Node: 2, DownMS: 10, UpMS: 100}, {Node: 2, DownMS: 50, UpMS: 60},
		}}, "overlaps"},
		{"overlap permanent", HealthSpec{Events: []NodeEvent{
			{Node: 2, DownMS: 10}, {Node: 2, DownMS: 500, UpMS: 600},
		}}, "overlaps"},
		{"negative failures", HealthSpec{Failures: -1}, "negative failure count"},
		{"failures without means", HealthSpec{Failures: 2}, "mean up time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.h.Validate(8); err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.frag)
			}
		})
	}
}

func TestHealthSpecSeededDeterministic(t *testing.T) {
	h := HealthSpec{Seed: 7, Failures: 5, MeanUpMS: 300, MeanDownMS: 80}
	a, err := h.Instantiate(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Instantiate(16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seeded schedules differ between instantiations")
	}
	if len(a) == 0 || len(a) > 5 {
		t.Fatalf("got %d events, want 1..5", len(a))
	}
	for i, e := range a {
		if e.Node < 0 || e.Node >= 16 || e.UpMS <= e.DownMS {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
		if i > 0 && e.DownMS < a[i-1].DownMS {
			t.Fatalf("events unsorted at %d: %+v", i, a)
		}
	}
	// A different seed must move the schedule.
	h2 := h
	h2.Seed = 8
	c, err := h2.Instantiate(16)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seed change did not perturb the schedule")
	}
}

func TestHealthSpecZero(t *testing.T) {
	var h HealthSpec
	if !h.IsZero() {
		t.Fatal("zero spec not IsZero")
	}
	evs, err := h.Instantiate(4)
	if err != nil || evs != nil {
		t.Fatalf("zero spec instantiated to %v, %v", evs, err)
	}
	if h.String() != "no node faults" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestAllocatorNodeDownShrinksLease(t *testing.T) {
	cl := allocCluster(t)
	a, err := NewAllocator(cl, AllocatorOptions{AcquireMS: 5, ReleaseMS: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := a.Acquire("alice", []int{4, 1, 6}, 10)
	if err != nil {
		t.Fatal(err)
	}

	if err := a.NodeDown(1, 40); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.Ranks, []int{4, 6}) {
		t.Fatalf("healed ranks = %v, want [4 6]", l.Ranks)
	}
	if !a.Holds(l) {
		t.Fatal("healed lease no longer held")
	}
	// The dead node's busy window [10, 40] is banked immediately.
	if got := a.busyMS; got != 30 {
		t.Fatalf("busy node-ms after shrink = %g, want 30", got)
	}
	// Down node is not placeable and not acquirable.
	if a.Free() != 5 || a.Down() != 1 {
		t.Fatalf("Free/Down = %d/%d, want 5/1", a.Free(), a.Down())
	}
	for _, r := range a.FreeRanks() {
		if r == 1 {
			t.Fatal("down node listed free")
		}
	}
	if _, err := a.Acquire("bob", []int{1}, 41); err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("Acquire on down node = %v, want down error", err)
	}

	// Releasing the healed lease charges only the survivors' window.
	if err := a.Release(l, 100); err != nil {
		t.Fatal(err)
	}
	if got := a.busyMS; got != 30+2*90 {
		t.Fatalf("busy node-ms after release = %g, want 210", got)
	}

	// The node returns at its up event and is placeable again.
	if err := a.NodeUp(1, 150); err != nil {
		t.Fatal(err)
	}
	if a.Down() != 0 || a.Free() != 8 {
		t.Fatalf("Free/Down after up = %d/%d, want 8/0", a.Free(), a.Down())
	}
	if _, err := a.Acquire("bob", []int{1}, 151); err != nil {
		t.Fatalf("Acquire after NodeUp: %v", err)
	}
}

func TestAllocatorNodeDownLastNodeRetiresLease(t *testing.T) {
	cl := allocCluster(t)
	a, err := NewAllocator(cl, AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := a.Acquire("alice", []int{2, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.NodeDown(2, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.NodeDown(5, 20); err != nil {
		t.Fatal(err)
	}
	if a.Holds(l) {
		t.Fatal("fully-failed lease still held")
	}
	if len(a.leases) != 0 {
		t.Fatalf("%d leases active, want 0", len(a.leases))
	}
	// Double release must be refused, as always.
	if err := a.Release(l, 30); err == nil {
		t.Fatal("Release of retired lease succeeded")
	}
	// Full busy accounting: node 2 over [0,10], node 5 over [0,20].
	if got := a.busyMS; got != 30 {
		t.Fatalf("busy node-ms = %g, want 30", got)
	}
}

func TestAllocatorNodeDownErrors(t *testing.T) {
	cl := allocCluster(t)
	a, err := NewAllocator(cl, AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.NodeDown(99, 0); err == nil {
		t.Fatal("out-of-range NodeDown succeeded")
	}
	if err := a.NodeUp(0, 0); err == nil {
		t.Fatal("NodeUp of healthy node succeeded")
	}
	if err := a.NodeDown(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.NodeDown(0, 11); err == nil {
		t.Fatal("double NodeDown succeeded")
	}
	if err := a.NodeUp(0, 5); err == nil {
		t.Fatal("NodeUp with time going backwards succeeded")
	}
}
