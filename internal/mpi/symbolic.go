package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/simnet"
)

// symTransport is the symbolic fast-forward substrate: ranks are cooperative
// goroutines under a sequential scheduler, message streams are the shared
// mailboxes, and every clock operation is pure arithmetic on a rank-local
// float. Where the DES transport turns each Advance/WaitUntil/Occupy into a
// heap event and each message into a delivery event, the symbolic
// transport fast-forwards through them — a rank context-switches only when
// it genuinely cannot proceed (Take on an empty stream, Park at a barrier),
// so a full ladder rung costs O(program length), not O(events).
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
	clocks []float64 // clocks[r]: rank r's virtual time (ms)
	boxes  []mailbox // boxes[to]: every stream addressed to rank to

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

// NewSymbolicTransport returns the symbolic fast-forward Transport for size
// ranks.
func NewSymbolicTransport(size int) Transport {
	return &symTransport{
		clocks: make([]float64, size),
		boxes:  newMailboxes(size),
		queued: make([]bool, size),
		ranks:  make([]*des.Coroutine, size),
		home:   des.NewCoroutine(nil),
	}
}

// makeRunnable queues rank for the scheduler if its mailbox reported a
// wake.
func (t *symTransport) makeRunnable(rank int, wake bool) {
	if wake && !t.queued[rank] {
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

// block suspends the calling rank, whose wait its mailbox has recorded,
// handing control to the next runnable rank, until some rank makes it
// runnable and control comes back. Called only from the rank's own
// execution context.
func (t *symTransport) block(rank int) {
	des.Transfer(t.ranks[rank], t.next())
	if t.aborted {
		panic(errAborted)
	}
}

// abortBlocked wakes every blocked rank into the aborted state so it
// unwinds via the errAborted panic (recovered by the runtime). Called from
// rank context, by Abort or on deadlock.
func (t *symTransport) abortBlocked() {
	t.aborted = true
	for r := range t.boxes {
		t.makeRunnable(r, t.boxes[r].interrupt())
	}
}

// Run implements Transport: run every rank as a cooperative goroutine, in
// FIFO order from the runnable queue, until all ranks finish, and report a
// deadlock if one was found on the way.
func (t *symTransport) Run(body func(rank int)) error {
	t.live = len(t.ranks)
	for r := range t.ranks {
		t.ranks[r] = des.NewCoroutine(func() {
			body(r)
			t.live--
			des.Transfer(nil, t.next())
		})
		t.makeRunnable(r, true)
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
	t.makeRunnable(to, t.boxes[to].post(from, m))
}

func (t *symTransport) Take(from, to int) (Message, bool) {
	for {
		m, ok, wait := t.boxes[to].take(from)
		if !wait {
			return m, ok
		}
		t.block(to)
	}
}

func (t *symTransport) Park(rank int) {
	for t.boxes[rank].park() {
		t.block(rank)
	}
}

func (t *symTransport) Unpark(rank int) { t.makeRunnable(rank, t.boxes[rank].unpark()) }

// BroadcastDeath marks rank dead in every mailbox, its own included, and
// queues every peer blocked on one of its streams. Runs in the dying
// rank's context.
func (t *symTransport) BroadcastDeath(rank int) {
	for to := range t.boxes {
		t.makeRunnable(to, t.boxes[to].markDead(rank))
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
