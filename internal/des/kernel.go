// Package des is a process-oriented discrete-event simulation kernel in the
// style of SimPy/CSIM, built on goroutines and channels.
//
// The kernel owns a virtual clock and a time-ordered event heap. Processes
// are goroutines that run cooperatively: exactly one of the kernel or a
// single process executes at any instant, with control handed over
// explicitly. That makes simulations fully deterministic — events at equal
// times fire in scheduling order, and process interleaving is a pure
// function of the event timeline, never of the Go scheduler.
//
// This package is the substrate for the contended-Ethernet network model
// (internal/simnet) and for the event-driven engine of the message-passing
// runtime (internal/mpi). It is general: Kernel/Proc/Resource/Queue have no
// knowledge of clusters or MPI.
package des

import (
	"container/heap"
	"errors"
	"fmt"
)

// Event is a scheduled callback.
type event struct {
	time float64
	seq  uint64 // FIFO tie-breaker for equal times
	fire func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel is a discrete-event simulation executive.
type Kernel struct {
	now     float64
	seq     uint64
	events  eventHeap
	yield   chan struct{} // processes signal the kernel here when they block/finish
	procs   int           // live (not finished) processes
	running bool
}

// NewKernel returns a kernel at virtual time 0.
func NewKernel() *Kernel {
	return &Kernel{yield: make(chan struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() float64 { return k.now }

// Schedule registers fn to fire delay time units from now. Negative delays
// are clamped to zero. Events at the same instant fire in the order they
// were scheduled.
func (k *Kernel) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.seq++
	heap.Push(&k.events, &event{time: k.now + delay, seq: k.seq, fire: fn})
}

// ScheduleAt registers fn to fire at absolute virtual time t (clamped to
// now). Unlike Schedule(t-Now(), fn), the event lands exactly on t: the
// relative form computes now + (t - now), which in floating point can end
// one ulp away from t. Deadline-style waits use this so the kernel's clock
// agrees bit-for-bit with backends that assign absolute clocks directly.
func (k *Kernel) ScheduleAt(t float64, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	heap.Push(&k.events, &event{time: t, seq: k.seq, fire: fn})
}

// ErrDeadlock is returned by Run when live processes remain but no events
// are pending — every process is suspended waiting for a wake-up that can
// never arrive.
var ErrDeadlock = errors.New("des: deadlock: suspended processes remain but event queue is empty")

// Run drives the simulation until the event queue drains. It returns
// ErrDeadlock if suspended processes remain afterwards. Run may be called
// only once at a time.
func (k *Kernel) Run() error {
	if k.running {
		return errors.New("des: Run called re-entrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for len(k.events) > 0 {
		e := heap.Pop(&k.events).(*event)
		if e.time < k.now {
			return fmt.Errorf("des: time went backwards: %g -> %g", k.now, e.time)
		}
		k.now = e.time
		e.fire()
	}
	if k.procs > 0 {
		return fmt.Errorf("%w (%d stuck)", ErrDeadlock, k.procs)
	}
	return nil
}
