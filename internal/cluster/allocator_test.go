package cluster

import (
	"strings"
	"testing"
)

func allocCluster(t *testing.T) *Cluster {
	t.Helper()
	cl, err := MMConfig(8)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestAllocatorExclusiveLeases(t *testing.T) {
	cl := allocCluster(t)
	a, err := NewAllocator(cl, AllocatorOptions{AcquireMS: 5, ReleaseMS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Free() != 8 {
		t.Fatalf("Free = %d, want 8", a.Free())
	}

	l1, err := a.Acquire("alice", []int{0, 1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if l1.ReadyMS != 15 {
		t.Errorf("ReadyMS = %g, want acquire time + charge = 15", l1.ReadyMS)
	}
	if l1.Sub.Size() != 3 || l1.Sub.Nodes[0].Name != cl.Nodes[0].Name {
		t.Errorf("leased subset wrong: %v", l1.Sub)
	}
	if want := "C8'/lease0-alice"; l1.Sub.Name != want {
		t.Errorf("lease cluster name %q, want %q", l1.Sub.Name, want)
	}
	if a.Free() != 5 || len(a.leases) != 1 {
		t.Errorf("Free/leases = %d/%d, want 5/1", a.Free(), len(a.leases))
	}

	// Overlapping ranks must be refused.
	if _, err := a.Acquire("bob", []int{2, 3}, 11); err == nil {
		t.Fatal("overlapping lease granted")
	}
	// Disjoint ranks in scheduler-chosen (non-ascending, non-zero-based)
	// order are fine: rank 0 of the job lands on shared node 7.
	l2, err := a.Acquire("bob", []int{7, 3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Sub.Nodes[0].Name != cl.Nodes[7].Name || l2.Sub.Nodes[1].Name != cl.Nodes[3].Name {
		t.Errorf("lease order not preserved: %v", l2.Sub.Nodes)
	}

	// Release frees the nodes and accounts busy node-ms.
	if err := a.Release(l1, 50); err != nil {
		t.Fatal(err)
	}
	if a.Free() != 6 {
		t.Errorf("Free after release = %d, want 6", a.Free())
	}
	if got := a.busyMS; got != 3*40 {
		t.Errorf("busy node-ms = %g, want 120", got)
	}
	if err := a.Release(l1, 60); err == nil {
		t.Fatal("double release accepted")
	}
	// Freed ranks are immediately leasable again.
	if _, err := a.Acquire("carol", []int{0, 1, 2}, 50); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorRejectsBadInput(t *testing.T) {
	cl := allocCluster(t)
	a, err := NewAllocator(cl, AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire("t", nil, 0); err == nil {
		t.Error("empty lease accepted")
	}
	if _, err := a.Acquire("t", []int{8}, 0); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := a.Acquire("t", []int{1, 1}, 0); err == nil {
		t.Error("repeated rank accepted")
	}
	if _, err := a.Acquire("t", []int{2, 3, 2}, 0); err == nil || !strings.Contains(err.Error(), "rank 2 repeated") {
		t.Errorf("repeated rank after a good one: %v", err)
	}
	if _, err := a.Acquire("t", []int{4, 5, 9}, 0); err == nil {
		t.Error("out-of-range rank after good ones accepted")
	}
	// A refused lease claims nothing.
	if a.Free() != 8 || len(a.leases) != 0 {
		t.Fatalf("after refusals Free/leases = %d/%d, want 8/0", a.Free(), len(a.leases))
	}
	if _, err := a.Acquire("t", []int{0}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire("t", []int{1}, 4); err == nil ||
		!strings.Contains(err.Error(), "backwards") {
		t.Errorf("time regression not caught: %v", err)
	}
	if _, err := NewAllocator(cl, AllocatorOptions{AcquireMS: -1}); err == nil {
		t.Error("negative acquire charge accepted")
	}
}

func TestAllocatorFreeRanksAndUtilization(t *testing.T) {
	cl := allocCluster(t)
	a, err := NewAllocator(cl, AllocatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := a.Acquire("t", []int{5, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	free := a.FreeRanks()
	want := []int{0, 1, 3, 4, 6, 7}
	if len(free) != len(want) {
		t.Fatalf("FreeRanks = %v, want %v", free, want)
	}
	for i := range want {
		if free[i] != want[i] {
			t.Fatalf("FreeRanks = %v, want %v", free, want)
		}
	}
	// The lease keeps its own copy of the ranks it was given from the
	// allocator's buffer, which the next call refills.
	l2, err := a.Acquire("u", free[4:], 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.FreeRanks(); len(got) != 4 || l2.Ranks[0] != 6 || l2.Ranks[1] != 7 {
		t.Errorf("FreeRanks = %v and lease ranks %v, want 4 free and [6 7]", got, l2.Ranks)
	}
	if n := testing.AllocsPerRun(10, func() { a.FreeRanks() }); n != 0 {
		t.Errorf("FreeRanks allocates %g times per call", n)
	}
	if err := a.Release(l2, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(l, 100); err != nil {
		t.Fatal(err)
	}
	if got := a.Utilization(100); got != 200.0/800.0 {
		t.Errorf("Utilization = %g, want 0.25", got)
	}
}
