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
	boxes []mailbox // boxes[to]: every stream addressed to rank to

	// clocks[r] is touched only from rank r's goroutine; cross-rank
	// reads happen only after Run's WaitGroup edge.
	clocks []float64

	aborted atomic.Bool
}

// What a mailbox's owner is blocked on: a source rank (>= 0, in Take),
// its barrier token (Park), or nothing.
const (
	waitNone = -1
	waitPark = -2
)

// mailbox holds one receiving rank's incoming streams and the state its
// wakers need; mu guards every field but wake.
//
// Wake-up protocol: the owner records what it waits for in waiting, drops
// mu and receives from wake. A waker that finds waiting matching its event
// clears it in the same critical section and, after releasing mu, sends
// one token. Only the waker that cleared waiting sends, and the owner sets
// it again only after receiving, so at most one token is ever outstanding
// and the send never blocks.
type mailbox struct {
	mu      sync.Mutex
	streams []fifo // streams[from]
	// srcDead[from]: from died a fault death. The owner's own entry
	// marks the owner dead, and posts to a dead owner are dropped.
	srcDead  []bool
	waiting  int  // waitNone, waitPark, or the source rank Take waits on
	unparked bool // pending Unpark token (capacity-1 Park semantics)
	wake     chan struct{}
}

// NewLiveTransport returns the live-engine Transport for size ranks.
func NewLiveTransport(size int) Transport {
	t := &liveTransport{
		boxes:  make([]mailbox, size),
		clocks: make([]float64, size),
	}
	streams := make([]fifo, size*size)
	srcDead := make([]bool, size*size)
	for to := range t.boxes {
		b := &t.boxes[to]
		b.streams = streams[to*size : (to+1)*size : (to+1)*size]
		b.srcDead = srcDead[to*size : (to+1)*size : (to+1)*size]
		b.waiting = waitNone
		b.wake = make(chan struct{}, 1)
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

// unlockWaking releases b.mu (held on entry) and, if the owner is blocked
// on event, clears its wait and sends it the token. The send follows the
// unlock so the woken rank does not contend for mu.
func (b *mailbox) unlockWaking(event int) {
	wake := event != waitNone && b.waiting == event
	if wake {
		b.waiting = waitNone
	}
	b.mu.Unlock()
	if wake {
		b.wake <- struct{}{}
	}
}

// block records what b's owner waits for, releases b.mu (held on entry)
// and sleeps until a waker sends the token. Once the run is aborted it
// unwinds with errAborted instead.
func (t *liveTransport) block(b *mailbox, event int) {
	if t.aborted.Load() {
		b.mu.Unlock()
		panic(errAborted)
	}
	b.waiting = event
	b.mu.Unlock()
	<-b.wake
}

func (t *liveTransport) Post(from, to int, m Message) {
	b := &t.boxes[to]
	b.mu.Lock()
	if b.srcDead[to] {
		// Receiver is dead: dropping the payload is the contract.
		b.mu.Unlock()
		return
	}
	b.streams[from].push(m)
	b.unlockWaking(from)
}

// Take pops the oldest message on the from->to stream, blocking while it
// is empty. The stream is checked before the death flag, so messages a
// peer posted before dying are drained before ok == false.
func (t *liveTransport) Take(from, to int) (Message, bool) {
	b := &t.boxes[to]
	for {
		b.mu.Lock()
		if s := &b.streams[from]; !s.empty() {
			m := s.pop()
			b.mu.Unlock()
			return m, true
		}
		if b.srcDead[from] {
			b.mu.Unlock()
			return Message{}, false
		}
		t.block(b, from)
	}
}

func (t *liveTransport) Park(rank int) {
	b := &t.boxes[rank]
	for {
		b.mu.Lock()
		if b.unparked {
			b.unparked = false
			b.mu.Unlock()
			return
		}
		t.block(b, waitPark)
	}
}

// Unpark hands rank its barrier token. A token that arrives before the
// matching Park is kept until that Park consumes it.
func (t *liveTransport) Unpark(rank int) {
	b := &t.boxes[rank]
	b.mu.Lock()
	b.unparked = true
	b.unlockWaking(waitPark)
}

// BroadcastDeath marks rank dead in every mailbox, its own included, and
// wakes each peer blocked on its stream; the peer drains what rank posted
// before dying and then observes the flag. Runs in the dying rank's
// goroutine.
func (t *liveTransport) BroadcastDeath(rank int, _ float64) {
	for to := range t.boxes {
		b := &t.boxes[to]
		b.mu.Lock()
		b.srcDead[rank] = true
		b.unlockWaking(rank)
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
		b.unlockWaking(b.waiting) // whatever it is blocked on
	}
}

// runLive executes program on the live transport.
func runLive(cl *cluster.Cluster, model simnet.CostModel, opts Options, program Program) (Result, error) {
	return runWorld(cl, model, opts, program, NewLiveTransport(cl.Size()))
}
