package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/simnet"
)

// desTransport is the discrete-event substrate: ranks are processes of a
// des.Kernel observing one monotonic virtual clock, and transfers
// optionally queue for a contended simnet.Wire like frames on a hub.
// Every Post and every peer's death reaches the receiver's mailbox as one
// kernel event at the instant it happens, so a dead peer's messages,
// posted before its death, are in its streams before the death shows.
type desTransport struct {
	k     *des.Kernel
	wire  *simnet.Wire
	procs []*des.Proc
	boxes []mailbox // boxes[to]: every stream addressed to rank to
}

// NewDESTransport returns the DES-engine Transport for size ranks as
// processes of kernel k, with medium occupancy charged against wire.
func NewDESTransport(k *des.Kernel, wire *simnet.Wire, size int) Transport {
	return &desTransport{
		k:     k,
		wire:  wire,
		procs: make([]*des.Proc, size),
		boxes: newMailboxes(size),
	}
}

// Run implements Transport: spawn every rank as a kernel process, then
// drive the event loop to completion.
func (t *desTransport) Run(body func(rank int)) error {
	for r := range t.procs {
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

// resume wakes rank's process at the current instant if its mailbox
// reported a wake.
func (t *desTransport) resume(rank int, wake bool) {
	if wake {
		t.procs[rank].Wake()
	}
}

func (t *desTransport) Post(from, to int, m Message) {
	t.k.Schedule(0, func() { t.resume(to, t.boxes[to].post(from, m)) })
}

func (t *desTransport) Take(from, to int) (Message, bool) {
	for {
		m, ok, wait := t.boxes[to].take(from)
		if !wait {
			return m, ok
		}
		t.procs[to].Suspend()
	}
}

func (t *desTransport) Park(rank int) {
	for t.boxes[rank].park() {
		t.procs[rank].Suspend()
	}
}

func (t *desTransport) Unpark(rank int) { t.resume(rank, t.boxes[rank].unpark()) }

// BroadcastDeath marks rank dead in its own mailbox at once, so posts to
// it drop, and in every peer's mailbox by one event each, scheduled after
// every delivery rank posted. Runs in the dying rank's process context.
func (t *desTransport) BroadcastDeath(rank int) {
	t.boxes[rank].markDead(rank)
	for to := range t.boxes {
		if to != rank {
			t.k.Schedule(0, func() { t.resume(to, t.boxes[to].markDead(rank)) })
		}
	}
}

// Abort is a no-op: a failed rank strands its peers on empty streams, and
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
