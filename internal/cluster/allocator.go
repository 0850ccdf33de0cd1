package cluster

import (
	"fmt"
	"strconv"
)

// Allocator hands out exclusive node-subset leases on one shared
// cluster, the seam that turns a Cluster from "implicitly owned by a
// single run" into a multi-tenant resource. All times are virtual
// milliseconds on the caller's clock (conventionally a des.Kernel):
// acquire and release carry configurable virtual charges, and the
// allocator keeps busy node-milliseconds for utilization accounting.
// The allocator itself is policy-free — schedulers decide WHICH ranks
// to lease; it only enforces exclusivity and monotonic time.
type Allocator struct {
	cl      *Cluster
	opts    AllocatorOptions
	owner   []int  // per node: owning lease ID, or -1 when free
	down    []bool // per node: true between NodeDown and NodeUp
	drain   []bool // per node: true between NodeDrain and NodeJoin
	free    []int  // FreeRanks' buffer, refilled on every call
	outlook []NodeEvent
	leases  map[int]*Lease
	nextID  int
	lastMS  float64
	busyMS  float64 // completed-lease node-milliseconds
}

// AllocatorOptions carries the virtual-time charges of the lease
// life cycle.
type AllocatorOptions struct {
	// AcquireMS is the setup charge between Acquire and the lease
	// becoming usable (scheduling, placement, image/launch cost).
	AcquireMS float64
	// ReleaseMS is the teardown charge between a job vacating its nodes
	// and the nodes becoming free for the next lease.
	ReleaseMS float64
}

// Lease is an exclusive hold on a subset of the shared cluster's nodes.
type Lease struct {
	ID     int
	Tenant string
	// Ranks are the leased node indices of the SHARED cluster, in the
	// order the scheduler placed them: rank i of the leased job runs on
	// shared node Ranks[i]. Nothing requires Ranks[0] to be node 0.
	Ranks []int
	// Sub is the leased subset as a self-contained cluster, as acquired:
	// a node failure shrinks Ranks but leaves Sub alone.
	Sub *Cluster
	// AcquiredMS is when the lease was granted; ReadyMS is when the
	// nodes become usable (AcquiredMS plus the acquire charge).
	AcquiredMS float64
	ReadyMS    float64
}

// NewAllocator wraps a shared cluster in a lease manager.
func NewAllocator(cl *Cluster, opts AllocatorOptions) (*Allocator, error) {
	if cl == nil {
		return nil, fmt.Errorf("cluster: NewAllocator needs a cluster")
	}
	if opts.AcquireMS < 0 || opts.ReleaseMS < 0 {
		return nil, fmt.Errorf("cluster: negative lease charge (acquire %g, release %g)",
			opts.AcquireMS, opts.ReleaseMS)
	}
	owner := make([]int, cl.Size())
	for i := range owner {
		owner[i] = -1
	}
	return &Allocator{
		cl: cl, opts: opts, owner: owner,
		down:   make([]bool, cl.Size()),
		drain:  make([]bool, cl.Size()),
		leases: map[int]*Lease{},
	}, nil
}

// Cluster returns the shared cluster the allocator manages.
func (a *Allocator) Cluster() *Cluster { return a.cl }

// Free returns the number of currently placeable nodes: unleased, not
// down, and not draining.
func (a *Allocator) Free() int {
	n := 0
	for i, o := range a.owner {
		if o < 0 && !a.down[i] && !a.drain[i] {
			n++
		}
	}
	return n
}

// FreeRanks returns the placeable node indices — unleased, not down,
// and not draining — in ascending order. The slice is the allocator's
// own buffer: it is valid until the next call, and callers may reorder
// it. Acquire copies the ranks it is given.
func (a *Allocator) FreeRanks() []int {
	a.free = a.free[:0]
	for i, o := range a.owner {
		if o < 0 && !a.down[i] && !a.drain[i] {
			a.free = append(a.free, i)
		}
	}
	return a.free
}

// Down returns the number of currently down nodes.
func (a *Allocator) Down() int {
	n := 0
	for _, d := range a.down {
		if d {
			n++
		}
	}
	return n
}

// Acquire grants an exclusive lease on the given shared-cluster ranks at
// virtual time atMS. The ranks keep the caller's order (rank i of the
// leased job runs on shared node ranks[i]); the lease is usable from
// ReadyMS = atMS + AcquireMS. Time must be nondecreasing across
// allocator calls — the shared-clock invariant a DES-driven scheduler
// provides for free.
func (a *Allocator) Acquire(tenant string, ranks []int, atMS float64) (*Lease, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("cluster: lease for %q needs at least one rank", tenant)
	}
	if atMS < a.lastMS {
		return nil, fmt.Errorf("cluster: lease time went backwards (%g after %g)", atMS, a.lastMS)
	}
	// Each checked rank is claimed for the new lease on the spot, so a
	// repeat finds its own claim; a refusal hands the claims back.
	id := a.nextID
	for i, r := range ranks {
		if err := a.claim(r, id); err != nil {
			for _, q := range ranks[:i] {
				a.owner[q] = -1
			}
			return nil, err
		}
	}
	a.nextID++
	a.lastMS = atMS
	l := &Lease{
		ID: id, Tenant: tenant,
		Ranks:      append([]int(nil), ranks...),
		Sub:        a.cl.subset(a.cl.Name+"/lease"+strconv.Itoa(id)+"-"+tenant, ranks),
		AcquiredMS: atMS,
		ReadyMS:    atMS + a.opts.AcquireMS,
	}
	a.leases[id] = l
	return l, nil
}

// claim marks node r owned by lease id, or says why it cannot be.
func (a *Allocator) claim(r, id int) error {
	if r < 0 || r >= len(a.owner) {
		return fmt.Errorf("cluster: lease rank %d out of range [0,%d)", r, len(a.owner))
	}
	if a.owner[r] == id {
		return fmt.Errorf("cluster: lease rank %d repeated", r)
	}
	if a.down[r] {
		return fmt.Errorf("cluster: node %d is down", r)
	}
	if a.drain[r] {
		return fmt.Errorf("cluster: node %d is draining", r)
	}
	if o := a.owner[r]; o >= 0 {
		return fmt.Errorf("cluster: node %d already leased (lease %d, tenant %q)",
			r, o, a.leases[o].Tenant)
	}
	a.owner[r] = id
	return nil
}

// Release frees a lease's nodes at virtual time atMS (the caller
// schedules this AFTER the teardown charge: vacate + ReleaseMS). The
// nodes' busy window [AcquiredMS, atMS] is added to the utilization
// account. Releasing an unknown or already-released lease is an error.
func (a *Allocator) Release(l *Lease, atMS float64) error {
	if l == nil {
		return fmt.Errorf("cluster: Release of nil lease")
	}
	got, ok := a.leases[l.ID]
	if !ok || got != l {
		return fmt.Errorf("cluster: lease %d (tenant %q) not active — double release?", l.ID, l.Tenant)
	}
	if atMS < l.AcquiredMS {
		return fmt.Errorf("cluster: lease %d released at %g before acquire at %g", l.ID, atMS, l.AcquiredMS)
	}
	if atMS < a.lastMS {
		return fmt.Errorf("cluster: lease time went backwards (%g after %g)", atMS, a.lastMS)
	}
	a.lastMS = atMS
	for _, r := range l.Ranks {
		a.owner[r] = -1
	}
	delete(a.leases, l.ID)
	a.busyMS += (atMS - l.AcquiredMS) * float64(len(l.Ranks))
	return nil
}

// Holds reports whether l is still an active lease of this allocator.
// A lease fully consumed by node failures (every leased node went down)
// retires without an explicit Release, so schedulers guard their
// teardown events with this.
func (a *Allocator) Holds(l *Lease) bool {
	if l == nil {
		return false
	}
	got, ok := a.leases[l.ID]
	return ok && got == l
}

// NodeDown marks a node failed at virtual time atMS: it leaves the
// placeable set until NodeUp. If the node is currently leased the lease
// HEALS — it shrinks in place to the survivors (Ranks loses the node,
// and the dead node's busy window [AcquiredMS, atMS] is banked), so a
// later Release charges only the survivors. A lease whose last node dies
// is retired entirely (Holds turns false). A free node just goes down.
func (a *Allocator) NodeDown(node int, atMS float64) error {
	if node < 0 || node >= len(a.owner) {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", node, len(a.owner))
	}
	if a.down[node] {
		return fmt.Errorf("cluster: node %d already down", node)
	}
	if atMS < a.lastMS {
		return fmt.Errorf("cluster: lease time went backwards (%g after %g)", atMS, a.lastMS)
	}
	a.lastMS = atMS
	a.down[node] = true
	id := a.owner[node]
	if id < 0 {
		return nil
	}
	l := a.leases[id]
	survivors := make([]int, 0, len(l.Ranks)-1)
	for _, r := range l.Ranks {
		if r != node {
			survivors = append(survivors, r)
		}
	}
	a.owner[node] = -1
	a.busyMS += atMS - l.AcquiredMS
	l.Ranks = survivors
	if len(survivors) == 0 {
		delete(a.leases, l.ID)
	}
	return nil
}

// NodeUp returns a down node to the placeable set at virtual time atMS.
func (a *Allocator) NodeUp(node int, atMS float64) error {
	if node < 0 || node >= len(a.owner) {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", node, len(a.owner))
	}
	if !a.down[node] {
		return fmt.Errorf("cluster: node %d is not down", node)
	}
	if atMS < a.lastMS {
		return fmt.Errorf("cluster: lease time went backwards (%g after %g)", atMS, a.lastMS)
	}
	a.lastMS = atMS
	a.down[node] = false
	return nil
}

// NodeDrain gracefully removes a node from the placeable set at virtual
// time atMS — the planned counterpart of NodeDown. The node stops
// receiving new leases immediately, but unlike a failure an active lease
// is left entirely alone: the running job keeps the node until its own
// Release, after which the node sits drained (not free) until NodeJoin.
// Draining a down node is allowed — the states are orthogonal and both
// must clear before the node is placeable again.
func (a *Allocator) NodeDrain(node int, atMS float64) error {
	if node < 0 || node >= len(a.owner) {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", node, len(a.owner))
	}
	if a.drain[node] {
		return fmt.Errorf("cluster: node %d already draining", node)
	}
	if atMS < a.lastMS {
		return fmt.Errorf("cluster: lease time went backwards (%g after %g)", atMS, a.lastMS)
	}
	a.lastMS = atMS
	a.drain[node] = true
	return nil
}

// NodeJoin returns a drained node to the placeable set at virtual time
// atMS. If the node is also down it stays unplaceable until NodeUp.
func (a *Allocator) NodeJoin(node int, atMS float64) error {
	if node < 0 || node >= len(a.owner) {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", node, len(a.owner))
	}
	if !a.drain[node] {
		return fmt.Errorf("cluster: node %d is not draining", node)
	}
	if atMS < a.lastMS {
		return fmt.Errorf("cluster: lease time went backwards (%g after %g)", atMS, a.lastMS)
	}
	a.lastMS = atMS
	a.drain[node] = false
	return nil
}

// IsDraining reports whether a node is between NodeDrain and NodeJoin.
func (a *Allocator) IsDraining(node int) bool {
	return node >= 0 && node < len(a.drain) && a.drain[node]
}

// SetOutlook hands the allocator the instantiated outage schedule (the
// output of HealthSpec.Instantiate) so placement policies can steer
// around nodes with scheduled downtime. It is advisory forecast data
// only — the allocator never acts on it itself.
func (a *Allocator) SetOutlook(events []NodeEvent) {
	a.outlook = append([]NodeEvent(nil), events...)
}

// DownWithin reports whether the outlook schedules an outage of node
// intersecting the half-open window [fromMS, untilMS). An open-ended
// outage (UpMS = 0: never back) intersects every window at or after its
// start.
func (a *Allocator) DownWithin(node int, fromMS, untilMS float64) bool {
	for _, e := range a.outlook {
		if e.Node != node || e.DownMS >= untilMS {
			continue
		}
		if e.UpMS == 0 || e.UpMS > fromMS {
			return true
		}
	}
	return false
}

// Utilization returns busy node-ms over total node-ms for a horizon
// that started at virtual time 0 and ends at horizonMS. Active
// (unreleased) leases are not counted.
func (a *Allocator) Utilization(horizonMS float64) float64 {
	if horizonMS <= 0 || a.cl.Size() == 0 {
		return 0
	}
	return a.busyMS / (horizonMS * float64(a.cl.Size()))
}
