// Package des is a process-oriented discrete-event simulation kernel in the
// style of SimPy/CSIM, built on goroutines and channels.
//
// The kernel owns a virtual clock and a time-ordered event heap. Processes
// are goroutines that run cooperatively: exactly one of Run's goroutine or
// a single process executes at any instant, and no scheduler goroutine
// sits in between. Whoever holds control runs the event loop itself: it
// pops the next event, fires callbacks inline, and at a process's wake
// hands control straight to that process's goroutine (see Coroutine) — or,
// when the wake is its own, simply keeps running. When the heap drains,
// control returns to Run. That makes simulations fully deterministic —
// events at equal times fire in scheduling order, and process interleaving
// is a pure function of the event timeline, never of the Go scheduler.
//
// This package is the substrate for the contended-Ethernet network model
// (internal/simnet) and for the event-driven engine of the message-passing
// runtime (internal/mpi), whose message deliveries are plain callbacks.
// It is general: Kernel/Proc/Resource have no knowledge of clusters or MPI.
package des

import (
	"errors"
	"fmt"
)

// event is a scheduled callback or process wake. The heap holds events by
// value and a wake names its process, so scheduling allocates nothing once
// the heap has grown.
type event struct {
	time float64
	seq  uint64 // FIFO tie-breaker for equal times
	fire func() // a callback; nil for a wake
	proc *Proc  // a wake: the process to resume
}

func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Kernel is a discrete-event simulation executive.
type Kernel struct {
	now     float64
	seq     uint64
	events  []event    // binary min-heap on (time, seq), sifted by hand
	home    *Coroutine // Run's goroutine
	live    []*Proc    // spawned and not finished, in no particular order
	err     error      // a broken event order, raised by whoever holds control
	running bool
}

// NewKernel returns a kernel at virtual time 0.
func NewKernel() *Kernel {
	return &Kernel{home: NewCoroutine(nil)}
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
	k.push(k.now+delay, fn, nil)
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
	k.push(t, fn, nil)
}

// push adds the event (t, fire, p) to the heap and sifts it up.
func (k *Kernel) push(t float64, fire func(), p *Proc) {
	k.seq++
	e := event{time: t, seq: k.seq, fire: fire, proc: p}
	k.events = append(k.events, e)
	h := k.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes and returns the earliest event; the heap must not be empty.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the callback and process references
	h = h[:n]
	k.events = h
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(&h[c]) {
				c++
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return top
}

// dispatch runs the event loop on the goroutine that holds control, whose
// coroutine is self (nil for a process that has finished). Callbacks fire
// inline; at a wake, control passes straight to the woken process, and
// when the heap drains (or the event order breaks), back to Run's
// goroutine. dispatch returns once control is back with self, which needs
// no switch at all when the next wake is self's own.
func (k *Kernel) dispatch(self *Coroutine) {
	for len(k.events) > 0 {
		e := k.pop()
		if e.time < k.now {
			k.err = fmt.Errorf("des: time went backwards: %g -> %g", k.now, e.time)
			break
		}
		k.now = e.time
		if e.proc == nil {
			e.fire()
			continue
		}
		Transfer(self, e.proc.co)
		return
	}
	Transfer(self, k.home)
}

// ErrDeadlock is returned by Run when live processes remain but no events
// are pending — every process is suspended waiting for a wake-up that can
// never arrive.
var ErrDeadlock = errors.New("des: deadlock: suspended processes remain but event queue is empty")

// ErrKilled is the panic value with which a stranded process's blocking
// call unwinds when Run ends with the process still suspended. A process
// that does not recover it ends quietly; one that recovers panics must let
// it end the process, as any further blocking call panics with it again.
var ErrKilled = errors.New("des: process killed: Run ended with it suspended")

// Run drives the simulation until the event queue drains. It returns
// ErrDeadlock if suspended processes remain afterwards, and unwinds each
// of them with ErrKilled, so a failed run leaves no goroutine behind. Run
// may be called only once at a time.
func (k *Kernel) Run() error {
	if k.running {
		return errors.New("des: Run called re-entrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	k.dispatch(k.home)
	err := k.err
	k.err = nil
	if err != nil {
		k.events = k.events[:0]
	} else if len(k.live) > 0 {
		err = fmt.Errorf("%w (%d stuck)", ErrDeadlock, len(k.live))
	}
	for len(k.live) > 0 {
		p := k.live[0]
		p.killed = true
		Transfer(k.home, p.co) // p unwinds, finishes and runs the loop dry
	}
	return err
}
