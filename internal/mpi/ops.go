package mpi

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// comm implements Comm for one rank of a world. All cost policy lives
// here — what an operation charges, when a rank dies, what gets traced —
// while the world's Transport supplies execution, blocking and delivery.
// Because this file is the only place that charges virtual time, both
// built-in transports (and any future one) produce identical clocks and
// identical trace span sequences by construction.
type comm struct {
	w      *world
	rank   int
	compMS float64
	commMS float64

	tr     *trace.Trace     // nil when tracing is off
	jitter float64          // 0 when jitter is off
	rng    *rand.Rand       // per-rank, seeded deterministically
	pair   simnet.PairModel // non-nil when the cost model is topology-aware

	inj     FaultInjector // nil when fault injection is off
	crashAt float64       // this rank's plan crash time; +Inf when none
	sendSeq []int         // per-destination transmission counter (every attempt)
}

var _ Comm = (*comm)(nil)

// newComm wires the per-run options into a rank's comm.
func newComm(w *world, rank int, opts Options) *comm {
	c := &comm{w: w, rank: rank, tr: opts.Trace, jitter: opts.Jitter, crashAt: math.Inf(1)}
	c.pair, _ = w.model.(simnet.PairModel)
	if c.jitter > 0 {
		c.rng = rand.New(rand.NewSource(opts.JitterSeed + int64(rank)*7919))
	}
	if opts.Faults != nil {
		c.inj = opts.Faults
		if t, ok := c.inj.CrashTimeMS(rank); ok {
			c.crashAt = t
		}
		c.sendSeq = make([]int, w.cl.Size())
	}
	return c
}

// Clock primitives, delegated to the world's transport.
func (c *comm) now() float64           { return c.w.t.Now(c.rank) }
func (c *comm) waitUntil(t float64)    { c.w.t.WaitUntil(c.rank, t) }
func (c *comm) post(to int, m Message) { c.w.t.Post(c.rank, to, m) }

// Fault plumbing. Death is always raised by panicking a rankDeath value;
// the runtime's recover handler records the error and announces the death
// to surviving ranks, so the announcement mechanics are the transport's
// while the decision to die lives here.
//
// Determinism: every death time below is a pure function of virtual time,
// and all transports agree on the virtual clock at op boundaries, so a
// given program + fault injector yields identical deaths, message counts
// and final clocks on every transport regardless of real scheduling.

// checkCrash kills the rank at an operation boundary once its plan crash
// time has passed.
func (c *comm) checkCrash() {
	if c.now() >= c.crashAt {
		at := c.crashAt
		if now := c.now(); now > at {
			at = now
		}
		panic(&CrashError{Rank: c.rank, AtMS: at})
	}
}

// adv advances charged virtual time like Transport.Advance, but truncates
// at the crash instant: a rank scheduled to die mid-interval stops exactly
// there.
func (c *comm) adv(dt float64) {
	if c.now()+dt > c.crashAt {
		c.waitUntil(c.crashAt) // no-op if the clock already passed it
		at := c.crashAt
		if now := c.now(); now > at {
			at = now
		}
		panic(&CrashError{Rank: c.rank, AtMS: at})
	}
	c.w.t.Advance(c.rank, dt)
}

// xfer charges a network occupancy like Transport.Occupy, but a sender
// whose crash lands mid-transfer dies at the crash instant and the
// payload is never delivered.
func (c *comm) xfer(durMS float64, to int) {
	if c.now()+durMS > c.crashAt {
		c.waitUntil(c.crashAt)
		at := c.crashAt
		if now := c.now(); now > at {
			at = now
		}
		panic(&CrashError{Rank: c.rank, AtMS: at})
	}
	c.w.t.Occupy(c.rank, durMS, to)
}

// peerDown aborts this rank because a peer it depends on died: the abort
// instant is when the dependence became unsatisfiable — the later of the
// peer's death and this rank's own clock.
func (c *comm) peerDown(peer int) {
	at := c.w.peerDeathTime(peer)
	if now := c.now(); now > at {
		at = now
	}
	c.waitUntil(at)
	panic(&PeerCrashError{Rank: c.rank, Peer: peer, AtMS: at})
}

// stretch applies the configured measurement jitter to a charged duration.
// Each rank draws from its own deterministic stream, so runs remain
// reproducible while individual samples wobble like real measurements.
func (c *comm) stretch(dt float64) float64 {
	if c.jitter == 0 || dt == 0 {
		return dt
	}
	return dt * (1 + c.jitter*c.rng.Float64())
}

// span records a trace interval if tracing is enabled.
func (c *comm) span(kind trace.Kind, start, end float64, bytes, peer int) {
	if c.tr == nil {
		return
	}
	c.tr.Add(trace.Span{
		Rank: c.rank, Kind: kind,
		StartMS: start, EndMS: end, Bytes: bytes, Peer: peer,
	})
}

// Rank implements Comm.
func (c *comm) Rank() int { return c.rank }

// Size implements Comm.
func (c *comm) Size() int { return c.w.cl.Size() }

// Node implements Comm.
func (c *comm) Node() cluster.Node { return c.w.cl.Nodes[c.rank] }

// Clock implements Comm.
func (c *comm) Clock() float64 { return c.now() }

// Compute implements Comm. Marked speed is in Mflops = 1e3 flops per ms.
func (c *comm) Compute(flops float64) {
	if flops < 0 {
		panic(fmt.Sprintf("mpi: rank %d: negative flops %g", c.rank, flops))
	}
	c.checkCrash()
	start := c.now()
	dt := c.stretch(flops / (c.Node().SpeedMflops * 1e3))
	c.adv(dt)
	c.compMS += dt
	c.span(trace.KindCompute, start, c.now(), 0, -1)
}

func (c *comm) checkPeer(r int, what string) {
	if r < 0 || r >= c.Size() {
		panic(fmt.Sprintf("mpi: rank %d: %s peer %d out of range [0,%d)", c.rank, what, r, c.Size()))
	}
}

// sendCost and recvCost return the (possibly endpoint-aware) component
// costs of a point-to-point message.
func (c *comm) sendCost(to, bytes int) (send, xfer float64) {
	if c.pair != nil {
		return c.pair.PairSendTime(c.rank, to, bytes), c.pair.PairTransferTime(c.rank, to, bytes)
	}
	m := c.w.model
	return m.SendTime(bytes), m.TransferTime(bytes)
}

func (c *comm) recvCost(from, bytes int) float64 {
	if c.pair != nil {
		return c.pair.PairRecvTime(from, c.rank, bytes)
	}
	return c.w.model.RecvTime(bytes)
}

// Send implements Comm. Under fault injection the send is a stop-and-wait
// retransmission protocol: each attempt pays the full send + transfer
// cost; a dropped attempt costs an ack timeout (exponential backoff per
// consecutive loss) before the retry; exhausting the budget kills the
// sender with DropStormError. Every attempt — dropped or not — counts in
// the run's Messages/BytesMoved totals, so fault runs expose their
// retransmission traffic.
func (c *comm) Send(to, tag int, data []float64) {
	c.checkPeer(to, "Send")
	c.checkCrash()
	start := c.now()
	b := payloadBytes(data)
	send, xfer := c.sendCost(to, b)
	if c.inj == nil {
		c.adv(c.stretch(send))
		c.xfer(xfer, to)
		c.post(to, Message{Tag: tag, Avail: c.now(), Data: share(data)})
		c.w.countMsg(b)
	} else {
		c.sendReliable(to, tag, b, send, xfer, data)
	}
	c.commMS += c.now() - start
	c.span(trace.KindSend, start, c.now(), b, to)
}

// sendReliable is the lossy-link Send path: transmit, and on a drop wait
// out the ack timeout and retransmit, up to the injector's attempt budget.
func (c *comm) sendReliable(to, tag, b int, send, xfer float64, data []float64) {
	maxAttempts := c.inj.MaxSendAttempts()
	for attempt := 0; ; attempt++ {
		c.adv(c.stretch(send))
		c.xfer(xfer, to)
		c.w.countMsg(b)
		seq := c.sendSeq[to]
		c.sendSeq[to]++
		if !c.inj.DropSend(c.rank, to, seq) {
			c.post(to, Message{Tag: tag, Avail: c.now(), Data: share(data)})
			return
		}
		if attempt+1 >= maxAttempts {
			panic(&DropStormError{Rank: c.rank, Peer: to, Attempts: attempt + 1, AtMS: c.now()})
		}
		c.adv(c.stretch(c.inj.RetryDelayMS(attempt)))
	}
}

// ISend implements Comm: the sender pays only its software overhead; the
// payload becomes available at sender-clock + transfer time, overlapping
// whatever the sender does next. Contended-wire queueing does not apply
// (the transfer is modeled as offloaded).
func (c *comm) ISend(to, tag int, data []float64) {
	c.checkPeer(to, "ISend")
	c.checkCrash()
	start := c.now()
	b := payloadBytes(data)
	send, xfer := c.sendCost(to, b)
	c.adv(c.stretch(send))
	if c.inj == nil {
		c.post(to, Message{Tag: tag, Avail: c.now() + xfer, Data: share(data)})
		c.w.countMsg(b)
	} else {
		// The offloaded NIC retransmits in the background: each lost
		// attempt pushes availability out by a transfer plus the ack
		// timeout, while the sender's own clock stays put. Exhausting the
		// budget still kills the sender — at the instant the NIC gives up.
		avail := c.now()
		maxAttempts := c.inj.MaxSendAttempts()
		for attempt := 0; ; attempt++ {
			avail += xfer
			c.w.countMsg(b)
			seq := c.sendSeq[to]
			c.sendSeq[to]++
			if !c.inj.DropSend(c.rank, to, seq) {
				c.post(to, Message{Tag: tag, Avail: avail, Data: share(data)})
				break
			}
			if attempt+1 >= maxAttempts {
				panic(&DropStormError{Rank: c.rank, Peer: to, Attempts: attempt + 1, AtMS: avail})
			}
			avail += c.inj.RetryDelayMS(attempt)
		}
	}
	c.commMS += c.now() - start
	c.span(trace.KindSend, start, c.now(), b, to)
}

// Recv implements Comm. A receive from a rank that died before posting
// the message aborts this rank too (PeerCrashError), at the later of the
// peer's death time and this rank's clock — graceful cascade, not a hang.
func (c *comm) Recv(from, tag int) []float64 {
	c.checkPeer(from, "Recv")
	c.checkCrash()
	start := c.now()
	msg, ok := c.w.t.Take(from, c.rank)
	if !ok {
		c.peerDown(from)
	}
	if msg.Tag != tag {
		panic(fmt.Sprintf("mpi: rank %d: Recv(from=%d) tag mismatch: got %d, want %d",
			c.rank, from, msg.Tag, tag))
	}
	c.waitUntil(msg.Avail)
	waited := c.now()
	c.span(trace.KindWait, start, waited, 0, from)
	b := payloadBytes(msg.Data)
	c.adv(c.stretch(c.recvCost(from, b)))
	c.commMS += c.now() - start
	c.span(trace.KindRecv, waited, c.now(), b, from)
	return msg.Data
}

// Bcast implements Comm. The cost model's aggregate BcastTime(p, bytes)
// bounds everyone's completion, mirroring the paper's T_broadcast ≈ 0.23·p.
//
// The returned slice is a single copy shared by every participant: treat
// it as read-only. (Ranks run concurrently in real time; the shared copy
// insulates receivers from the root's buffer reuse but not from each
// other's writes.) Callers that need to mutate the payload must copy it.
// A Blank is shared as itself, with no copy at all.
func (c *comm) Bcast(root int, data []float64) []float64 {
	c.checkPeer(root, "Bcast")
	c.checkCrash()
	start := c.now()
	p := c.Size()
	var out []float64
	if c.rank == root {
		b := payloadBytes(data)
		done := c.now() + c.stretch(c.w.model.BcastTime(p, b))
		shared := share(data)
		for r := 0; r < p; r++ {
			if r == root {
				continue
			}
			c.post(r, Message{Tag: tagBcast, Avail: done, Data: shared})
			c.w.countMsg(b)
		}
		c.waitUntil(done)
		out = shared
		c.span(trace.KindBcast, start, c.now(), b, root)
	} else {
		msg, ok := c.w.t.Take(root, c.rank)
		if !ok {
			c.peerDown(root)
		}
		if msg.Tag != tagBcast {
			panic(fmt.Sprintf("mpi: rank %d: Bcast collective mismatch (tag %d)", c.rank, msg.Tag))
		}
		c.waitUntil(msg.Avail)
		out = msg.Data
		c.span(trace.KindWait, start, c.now(), payloadBytes(out), root)
	}
	c.commMS += c.now() - start
	return out
}

// Barrier implements Comm. A rank that dies before arriving leaves the
// barrier instead: survivors synchronize among themselves, and the dead
// rank's death time still bounds the release of the barrier generation in
// which it was expected (modeling failure detection).
func (c *comm) Barrier() {
	c.checkCrash()
	start := c.now()
	mx := c.w.bar.wait(c.rank, start)
	c.waitUntil(mx)
	waited := c.now()
	c.span(trace.KindWait, start, waited, 0, -1)
	c.adv(c.stretch(c.w.model.BarrierTime(c.Size())))
	c.commMS += c.now() - start
	c.span(trace.KindBarrier, waited, c.now(), 0, -1)
}

// Gatherv implements Comm.
func (c *comm) Gatherv(root int, data []float64) [][]float64 {
	c.checkPeer(root, "Gatherv")
	if c.rank != root {
		c.Send(root, tagGather, data)
		return nil
	}
	parts := make([][]float64, c.Size())
	parts[root] = share(data)
	for r := 0; r < c.Size(); r++ {
		if r != root {
			parts[r] = c.Recv(r, tagGather)
		}
	}
	return parts
}

// Scatterv implements Comm.
func (c *comm) Scatterv(root int, parts [][]float64) []float64 {
	c.checkPeer(root, "Scatterv")
	if c.rank != root {
		return c.Recv(root, tagScatter)
	}
	if len(parts) != c.Size() {
		panic(fmt.Sprintf("mpi: rank %d: Scatterv needs %d parts, got %d", c.rank, c.Size(), len(parts)))
	}
	for r := 0; r < c.Size(); r++ {
		if r != root {
			c.Send(r, tagScatter, parts[r])
		}
	}
	return share(parts[root])
}

// Reduce implements Comm.
func (c *comm) Reduce(root int, value float64, op ReduceOp) float64 {
	c.checkPeer(root, "Reduce")
	if op == nil {
		panic(fmt.Sprintf("mpi: rank %d: nil ReduceOp", c.rank))
	}
	if c.rank != root {
		c.Send(root, tagReduce, []float64{value})
		return 0
	}
	acc := value
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		v := c.Recv(r, tagReduce)
		acc = op(acc, v[0])
	}
	c.Compute(float64(c.Size() - 1)) // fold flops
	return acc
}

// Allreduce implements Comm.
func (c *comm) Allreduce(value float64, op ReduceOp) float64 {
	const root = 0
	acc := c.Reduce(root, value, op)
	out := c.Bcast(root, []float64{acc})
	return out[0]
}
