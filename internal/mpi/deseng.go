package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/simnet"
)

// desTransport is the discrete-event substrate: ranks are processes of a
// des.Kernel observing one monotonic virtual clock, message streams are
// kernel queues, and transfers optionally queue for a contended
// simnet.Wire like frames on a hub.
type desTransport struct {
	k      *des.Kernel
	wire   *simnet.Wire
	size   int
	procs  []*des.Proc
	queues [][]*des.Queue // queues[from][to]
}

// NewDESTransport returns the DES-engine Transport for size ranks as
// processes of kernel k, with medium occupancy charged against wire.
func NewDESTransport(k *des.Kernel, wire *simnet.Wire, size int) Transport {
	t := &desTransport{
		k:      k,
		wire:   wire,
		size:   size,
		procs:  make([]*des.Proc, size),
		queues: make([][]*des.Queue, size),
	}
	for i := range t.queues {
		t.queues[i] = make([]*des.Queue, size)
		for j := range t.queues[i] {
			t.queues[i][j] = k.NewQueue(fmt.Sprintf("q%d-%d", i, j))
		}
	}
	return t
}

// Run implements Transport: spawn every rank as a kernel process, then
// drive the event loop to completion.
func (t *desTransport) Run(body func(rank int)) error {
	for r := 0; r < t.size; r++ {
		r := r
		t.procs[r] = t.k.Spawn(fmt.Sprintf("rank%d", r), func(*des.Proc) { body(r) })
	}
	return t.k.Run()
}

func (t *desTransport) Now(rank int) float64         { return t.procs[rank].Now() }
func (t *desTransport) Advance(rank int, dt float64) { t.procs[rank].Delay(dt) }

// WaitUntil uses DelayUntil (absolute deadline) rather than Delay(ts-now):
// the relative form can land one ulp off ts, which is the one arithmetic
// divergence that would break bitwise equality with the live and
// symbolic substrates (both assign clocks[rank] = ts directly).
func (t *desTransport) WaitUntil(rank int, ts float64) {
	p := t.procs[rank]
	if ts > p.Now() {
		p.DelayUntil(ts)
	}
}

func (t *desTransport) Occupy(rank int, durMS float64, to int) {
	t.wire.OccupyFor(t.procs[rank], durMS, rank, to)
}

func (t *desTransport) Post(from, to int, m Message) { t.queues[from][to].Put(m, 0) }

func (t *desTransport) Take(from, to int) (Message, bool) {
	// Death is detected solely via the tombstone, never via a shared dead
	// flag: a peer's final payload may still be an in-flight delivery
	// event when it dies, and the FIFO event heap guarantees the tombstone
	// (posted last, at the latest time) arrives after every real message.
	m := t.queues[from][to].Get(t.procs[to]).(Message)
	if m.Tag == tagCrashed {
		return Message{}, false
	}
	return m, true
}

func (t *desTransport) Park(rank int)   { t.procs[rank].Suspend() }
func (t *desTransport) Unpark(rank int) { t.procs[rank].Wake() }

// BroadcastDeath posts a tombstone message on every outgoing queue of the
// dying rank so blocked receivers wake and learn the peer is gone. Each
// queue has exactly one consumer, and consuming a tombstone is terminal,
// so one tombstone per queue suffices. Runs in the dying rank's process
// context.
func (t *desTransport) BroadcastDeath(rank int, atMS float64) {
	for to := range t.queues[rank] {
		if to != rank {
			t.queues[rank][to].Put(Message{Tag: tagCrashed, Avail: atMS}, 0)
		}
	}
}

// Abort is a no-op: a failed rank strands its peers on empty queues, and
// the kernel reports the stall as deadlock, which runWorld surfaces
// alongside the rank's own error, then unwinds each stranded rank with
// des.ErrKilled, which runWorld reports as errAborted.
func (t *desTransport) Abort() {}

// runDES executes program on the DES transport, optionally with a
// contended wire.
func runDES(cl *cluster.Cluster, model simnet.CostModel, opts Options, program Program) (Result, error) {
	k := des.NewKernel()
	wire := simnet.NewWireMode(k, model, opts.Network, cl.Size())
	return runWorld(cl, model, opts, program, NewDESTransport(k, wire, cl.Size()))
}
