package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/simnet"
)

// symTransport is the symbolic fast-forward substrate: ranks are cooperative
// goroutines under a sequential scheduler, message streams are plain slices,
// and every clock operation is pure arithmetic on a rank-local float. Where
// the DES transport turns each Advance/WaitUntil/Occupy into a heap event
// and each message into a queue wake-up, the symbolic transport fast-forwards
// through them — a rank context-switches only when it genuinely cannot
// proceed (Take on an empty stream, Park at a barrier), so a full ladder
// rung costs O(program length), not O(events).
//
// Determinism does not come from a global event clock (there is none: rank
// clocks are decoupled and a rank may run arbitrarily far ahead of its
// peers). It comes from strict alternation — exactly one rank executes at
// any instant, and a rank that blocks pops the next runnable rank itself
// and hands control straight to it with one channel send (des.Coroutine),
// so Run's goroutine only starts the first rank and takes control back
// from the last — plus a FIFO runnable queue, so the interleaving is a pure
// function of the programs, never of the Go scheduler. That decoupling is
// sound because all charging policy lives in the shared runtime (ops.go) and
// every cross-rank time dependency is expressed through message Avail
// stamps and the max-reduction barrier, both of which are order-independent.
// Fault-free uncontended runs are therefore bit-identical to the live and
// DES engines (asserted by the differential suites); contention is the one
// feature the substrate cannot price, because wire queueing needs a global
// event order.
type symTransport struct {
	size    int
	clocks  []float64 // clocks[r]: rank r's virtual time (ms)
	streams []fifo    // streams[from*size+to]

	state    []symState
	waitSrc  []int  // rank r blocked in Take waits on messages from waitSrc[r]
	unparked []bool // pending Unpark token (capacity-1 Park semantics)
	dead     []bool // dead[r]: rank r died a fault death

	// Scheduler state. runq is a FIFO of runnable ranks (head-indexed so
	// pops are O(1)); queued guards against double-enqueue.
	runq     []int
	runqHead int
	queued   []bool
	ranks    []*des.Coroutine // ranks[r]: rank r's goroutine
	home     *des.Coroutine   // Run's goroutine
	live     int
	aborted  bool
	deadlock error // set when the runnable queue first runs dry
}

// symState is where a rank is in the scheduler's eyes.
type symState int8

const (
	symRunning  symState = iota // executing, or queued to execute
	symOnStream                 // blocked in Take on an empty stream
	symParked                   // blocked in Park
	symDone                     // body returned
)

// NewSymbolicTransport returns the symbolic fast-forward Transport for size
// ranks.
func NewSymbolicTransport(size int) Transport {
	t := &symTransport{
		size:     size,
		clocks:   make([]float64, size),
		streams:  make([]fifo, size*size),
		state:    make([]symState, size),
		waitSrc:  make([]int, size),
		unparked: make([]bool, size),
		dead:     make([]bool, size),
		queued:   make([]bool, size),
		ranks:    make([]*des.Coroutine, size),
		home:     des.NewCoroutine(nil),
	}
	for r := range t.waitSrc {
		t.waitSrc[r] = -1
	}
	return t
}

func (t *symTransport) stream(from, to int) *fifo { return &t.streams[from*t.size+to] }

// makeRunnable queues rank for the scheduler; the rank's state is corrected
// when it actually resumes (wakes are allowed to be spurious — Take rechecks
// its stream in a loop).
func (t *symTransport) makeRunnable(rank int) {
	if !t.queued[rank] {
		t.queued[rank] = true
		t.runq = append(t.runq, rank)
	}
}

// popRunnable removes and returns the FIFO head of the runnable queue.
func (t *symTransport) popRunnable() int {
	r := t.runq[t.runqHead]
	t.runqHead++
	if t.runqHead == len(t.runq) {
		t.runq = t.runq[:0]
		t.runqHead = 0
	}
	t.queued[r] = false
	return r
}

// next returns the coroutine to hand control to: the FIFO head of the
// runnable queue, or Run's goroutine once every rank has finished. If live
// ranks remain but none is runnable, the run is deadlocked: next aborts the
// blocked ranks so they unwind cleanly and records the deadlock for Run to
// report (mirroring the DES kernel's ErrDeadlock). Aborted ranks always
// unwind without re-blocking, so the queue never runs dry a second time;
// if it ever did, control goes back to Run rather than spinning.
func (t *symTransport) next() *des.Coroutine {
	if t.live == 0 {
		return t.home
	}
	if t.runqHead == len(t.runq) {
		if t.deadlock != nil {
			return t.home
		}
		t.deadlock = fmt.Errorf("mpi: symbolic engine deadlock: %d ranks blocked with no pending wake-up", t.live)
		t.abortBlocked()
	}
	return t.ranks[t.popRunnable()]
}

// block suspends the calling rank, handing control to the next runnable
// rank, until some rank makes it runnable and control comes back. Called
// only from the rank's own execution context.
func (t *symTransport) block(rank int, why symState) {
	t.state[rank] = why
	des.Transfer(t.ranks[rank], t.next())
	t.state[rank] = symRunning
	if t.aborted {
		panic(errAborted)
	}
}

// abortBlocked wakes every blocked rank into the aborted state so it
// unwinds via the errAborted panic (recovered by the runtime). Called from
// rank context, by Abort or on deadlock.
func (t *symTransport) abortBlocked() {
	t.aborted = true
	for r := 0; r < t.size; r++ {
		if t.state[r] == symOnStream || t.state[r] == symParked {
			t.makeRunnable(r)
		}
	}
}

// Run implements Transport: run every rank as a cooperative goroutine, in
// FIFO order from the runnable queue, until all ranks finish, and report a
// deadlock if one was found on the way.
func (t *symTransport) Run(body func(rank int)) error {
	t.live = t.size
	for r := 0; r < t.size; r++ {
		r := r
		t.ranks[r] = des.NewCoroutine(func() {
			body(r)
			t.state[r] = symDone
			t.live--
			des.Transfer(nil, t.next())
		})
		t.makeRunnable(r)
	}
	des.Transfer(t.home, t.next())
	return t.deadlock
}

func (t *symTransport) Now(rank int) float64              { return t.clocks[rank] }
func (t *symTransport) Advance(rank int, dt float64)      { t.clocks[rank] += dt }
func (t *symTransport) Occupy(rank int, d float64, _ int) { t.clocks[rank] += d }

func (t *symTransport) WaitUntil(rank int, ts float64) {
	if ts > t.clocks[rank] {
		t.clocks[rank] = ts
	}
}

func (t *symTransport) Post(from, to int, m Message) {
	if t.dead[to] {
		return // receiver died: dropping the payload is the contract
	}
	t.stream(from, to).push(m)
	if t.state[to] == symOnStream && t.waitSrc[to] == from {
		t.makeRunnable(to)
	}
}

func (t *symTransport) Take(from, to int) (Message, bool) {
	for {
		if q := t.stream(from, to); !q.empty() {
			return q.pop(), true
		}
		if t.dead[from] {
			// Peer died and its stream is drained: nothing more will come.
			return Message{}, false
		}
		t.waitSrc[to] = from
		t.block(to, symOnStream)
		t.waitSrc[to] = -1
	}
}

func (t *symTransport) Park(rank int) {
	if t.unparked[rank] {
		t.unparked[rank] = false
		return
	}
	t.block(rank, symParked)
}

func (t *symTransport) Unpark(rank int) {
	if t.state[rank] == symParked {
		t.makeRunnable(rank)
	} else {
		t.unparked[rank] = true
	}
}

// BroadcastDeath marks the rank dead and wakes every peer blocked on one of
// its streams; the waker re-checks the stream, drains any messages posted
// before the death, and then observes the dead flag. No tombstones are
// needed: the dead flag is read only after the stream is empty, so the
// "drain first, then die" ordering the DES tombstone provides via the event
// heap holds here by construction. Runs in the dying rank's context.
func (t *symTransport) BroadcastDeath(rank int, _ float64) {
	t.dead[rank] = true
	for to := 0; to < t.size; to++ {
		if t.state[to] == symOnStream && t.waitSrc[to] == rank {
			t.makeRunnable(to)
		}
	}
}

func (t *symTransport) Abort() {
	if !t.aborted {
		t.abortBlocked()
	}
}

// runSymbolic executes program on the symbolic fast-forward transport.
func runSymbolic(cl *cluster.Cluster, model simnet.CostModel, opts Options, program Program) (Result, error) {
	return runWorld(cl, model, opts, program, NewSymbolicTransport(cl.Size()))
}
