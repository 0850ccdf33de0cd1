package mpi

import (
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

// liveTransport is the live-engine substrate: one goroutine per rank, one
// mailbox per receiving rank, and rank-local clocks. Virtual time is
// computed from message timestamps, so results are bit-deterministic
// regardless of Go scheduling.
//
// Post appends to an unbounded per-source FIFO and never blocks; a rank
// blocks only in Take on an empty stream or in Park, and is woken through
// its mailbox.
type liveTransport struct {
	boxes []liveBox // boxes[to]: every stream addressed to rank to

	// clocks[r] is touched only from rank r's goroutine; cross-rank
	// reads happen only after Run's WaitGroup edge.
	clocks []float64

	aborted atomic.Bool
}

// liveBox is a mailbox shared between goroutines: mu guards the mailbox,
// and a waker that the mailbox reports sends the owner one token on wake
// after releasing mu. The owner blocks only with its wait recorded and
// sets it again only after receiving, so at most one token is ever
// outstanding and the send never blocks.
type liveBox struct {
	mu sync.Mutex
	mailbox
	wake chan struct{}
}

// NewLiveTransport returns the live-engine Transport for size ranks.
func NewLiveTransport(size int) Transport {
	t := &liveTransport{
		boxes:  make([]liveBox, size),
		clocks: make([]float64, size),
	}
	for to, b := range newMailboxes(size) {
		t.boxes[to].mailbox = b
		t.boxes[to].wake = make(chan struct{}, 1)
	}
	return t
}

// Run implements Transport: one goroutine per rank.
func (t *liveTransport) Run(body func(rank int)) error {
	var wg sync.WaitGroup
	for r := range t.boxes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(r)
		}()
	}
	wg.Wait()
	return nil
}

func (t *liveTransport) Now(rank int) float64              { return t.clocks[rank] }
func (t *liveTransport) Advance(rank int, dt float64)      { t.clocks[rank] += dt }
func (t *liveTransport) Occupy(rank int, d float64, _ int) { t.clocks[rank] += d }

func (t *liveTransport) WaitUntil(rank int, ts float64) {
	if ts > t.clocks[rank] {
		t.clocks[rank] = ts
	}
}

// unlock releases b.mu (held on entry) and then, if the mailbox reported
// a wake, sends the owner its token, so the woken rank does not contend
// for mu.
func (b *liveBox) unlock(wake bool) {
	b.mu.Unlock()
	if wake {
		b.wake <- struct{}{}
	}
}

// block releases b.mu (held on entry, with the owner's wait recorded) and
// sleeps until a waker sends the token. Once the run is aborted it
// unwinds with errAborted instead.
func (t *liveTransport) block(b *liveBox) {
	if t.aborted.Load() {
		b.interrupt()
		b.mu.Unlock()
		panic(errAborted)
	}
	b.mu.Unlock()
	<-b.wake
}

func (t *liveTransport) Post(from, to int, m Message) {
	b := &t.boxes[to]
	b.mu.Lock()
	b.unlock(b.post(from, m))
}

func (t *liveTransport) Take(from, to int) (Message, bool) {
	b := &t.boxes[to]
	for {
		b.mu.Lock()
		m, ok, wait := b.take(from)
		if !wait {
			b.mu.Unlock()
			return m, ok
		}
		t.block(b)
	}
}

func (t *liveTransport) Park(rank int) {
	b := &t.boxes[rank]
	for {
		b.mu.Lock()
		if !b.park() {
			b.mu.Unlock()
			return
		}
		t.block(b)
	}
}

func (t *liveTransport) Unpark(rank int) {
	b := &t.boxes[rank]
	b.mu.Lock()
	b.unlock(b.unpark())
}

// BroadcastDeath marks rank dead in every mailbox, its own included, and
// wakes each peer blocked on its stream. Runs in the dying rank's
// goroutine.
func (t *liveTransport) BroadcastDeath(rank int) {
	for to := range t.boxes {
		b := &t.boxes[to]
		b.mu.Lock()
		b.unlock(b.markDead(rank))
	}
}

// Abort sets the aborted flag once and wakes every blocked rank, which
// rechecks the flag and unwinds with errAborted. The flag is stored before
// any mailbox is locked, so a rank that checks it under its mailbox lock
// either sees it or is blocked by the time the sweep reaches it.
func (t *liveTransport) Abort() {
	if t.aborted.Swap(true) {
		return
	}
	for to := range t.boxes {
		b := &t.boxes[to]
		b.mu.Lock()
		b.unlock(b.interrupt())
	}
}

// runLive executes program on the live transport.
func runLive(cl *cluster.Cluster, model simnet.CostModel, opts Options, program Program) (Result, error) {
	return runWorld(cl, model, opts, program, NewLiveTransport(cl.Size()))
}
