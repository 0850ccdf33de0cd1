package mpi

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Comm is the per-rank handle a parallel program uses, analogous to an MPI
// communicator bound to one rank. All methods must be called from the
// program goroutine that received the Comm.
//
// All cost policy lives here — what an operation charges, when a rank
// dies, what gets traced — while the world's Transport supplies
// execution, blocking and delivery. Because this file is the only place
// that charges virtual time, every transport produces identical clocks
// and identical trace span sequences by construction.
type Comm struct {
	w      *world
	rank   int
	compMS float64
	commMS float64

	tr   *trace.Trace     // nil when tracing is off
	pair simnet.PairModel // non-nil when the cost model is topology-aware

	inj     FaultInjector // nil when fault injection is off
	crashAt float64       // this rank's plan crash time; +Inf when none
	sendSeq []int         // per-destination transmission counter (every attempt)
}

// newComm wires the per-run options into a rank's Comm.
func newComm(w *world, rank int, opts Options) *Comm {
	c := &Comm{w: w, rank: rank, tr: opts.Trace, crashAt: math.Inf(1)}
	c.pair, _ = w.model.(simnet.PairModel)
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
func (c *Comm) now() float64           { return c.w.t.Now(c.rank) }
func (c *Comm) waitUntil(t float64)    { c.w.t.WaitUntil(c.rank, t) }
func (c *Comm) post(to int, m Message) { c.w.t.Post(c.rank, to, m) }

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
func (c *Comm) checkCrash() {
	if c.now() >= c.crashAt {
		c.die()
	}
}

// adv advances charged virtual time like Transport.Advance, but truncates
// at the crash instant: a rank scheduled to die mid-interval stops exactly
// there. Unlike checkCrash's now ≥ crash, a charge that ends exactly at
// the crash instant (a zero one included) completes, and the rank dies at
// its next operation boundary.
func (c *Comm) adv(dt float64) {
	if c.now()+dt > c.crashAt {
		c.die()
	}
	c.w.t.Advance(c.rank, dt)
}

// xfer charges a network occupancy like Transport.Occupy, but a sender
// whose crash lands mid-transfer dies at the crash instant and the
// payload is never delivered.
func (c *Comm) xfer(durMS float64, to int) {
	if c.now()+durMS > c.crashAt {
		c.die()
	}
	c.w.t.Occupy(c.rank, durMS, to)
}

// die kills the rank by its fault plan: at the crash instant, or at its
// clock if an operation boundary found the instant already passed.
func (c *Comm) die() {
	c.waitUntil(c.crashAt) // no-op if the clock already passed it
	panic(&CrashError{Rank: c.rank, AtMS: c.now()})
}

// peerDown aborts this rank because a peer it depends on died: the abort
// instant is when the dependence became unsatisfiable — the later of the
// peer's death and this rank's own clock.
func (c *Comm) peerDown(peer int) {
	at := c.w.peerDeathTime(peer)
	if now := c.now(); now > at {
		at = now
	}
	c.waitUntil(at)
	panic(&PeerCrashError{Rank: c.rank, Peer: peer, AtMS: at})
}

// span records a trace interval if tracing is enabled.
func (c *Comm) span(kind trace.Kind, start, end float64, bytes, peer int) {
	if c.tr == nil {
		return
	}
	c.tr.Add(trace.Span{
		Rank: c.rank, Kind: kind,
		StartMS: start, EndMS: end, Bytes: bytes, Peer: peer,
	})
}

// Rank returns this process's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.w.cl.Size() }

// Node returns the cluster node this rank runs on.
func (c *Comm) Node() cluster.Node { return c.w.cl.Nodes[c.rank] }

// Clock returns this rank's virtual time in milliseconds.
func (c *Comm) Clock() float64 { return c.now() }

// Compute advances the clock by flops at this node's marked speed, in
// Mflops = 1e3 flops per ms.
func (c *Comm) Compute(flops float64) {
	if flops < 0 {
		panic(fmt.Sprintf("mpi: rank %d: negative flops %g", c.rank, flops))
	}
	c.checkCrash()
	start := c.now()
	dt := flops / (c.Node().SpeedMflops * 1e3)
	c.adv(dt)
	c.compMS += dt
	c.span(trace.KindCompute, start, c.now(), 0, -1)
}

func (c *Comm) checkPeer(r int, what string) {
	if r < 0 || r >= c.Size() {
		panic(fmt.Sprintf("mpi: rank %d: %s peer %d out of range [0,%d)", c.rank, what, r, c.Size()))
	}
}

// sendCost and recvCost return the (possibly endpoint-aware) component
// costs of a point-to-point message.
func (c *Comm) sendCost(to, bytes int) (send, xfer float64) {
	if c.pair != nil {
		return c.pair.PairSendTime(c.rank, to, bytes), c.pair.PairTransferTime(c.rank, to, bytes)
	}
	m := c.w.model
	return m.SendTime(bytes), m.TransferTime(bytes)
}

func (c *Comm) recvCost(from, bytes int) float64 {
	if c.pair != nil {
		return c.pair.PairRecvTime(from, c.rank, bytes)
	}
	return c.w.model.RecvTime(bytes)
}

// dropped reports whether the fault injector loses this transmission
// to rank to, the attempt-th (0-based) of one payload; false when fault
// injection is off. A loss on the last attempt the budget allows kills
// the sender with DropStormError at atMS.
func (c *Comm) dropped(to, attempt int, atMS float64) bool {
	if c.inj == nil {
		return false
	}
	seq := c.sendSeq[to]
	c.sendSeq[to]++
	if !c.inj.DropSend(c.rank, to, seq) {
		return false
	}
	if attempt+1 >= c.inj.MaxSendAttempts() {
		panic(&DropStormError{Rank: c.rank, Peer: to, Attempts: attempt + 1, AtMS: atMS})
	}
	return true
}

// Send transmits data to rank to with the given tag. The payload is
// copied; the caller may reuse data. A Blank is passed by reference
// instead (see Blank): the receiver gets the same read-only view.
//
// Under fault injection the send is a stop-and-wait retransmission
// protocol: each attempt pays the full send + transfer cost; a dropped
// attempt costs an ack timeout (exponential backoff per consecutive
// loss) before the retry; exhausting the budget kills the sender with
// DropStormError. Every attempt — dropped or not — counts in the run's
// Messages/BytesMoved totals, so fault runs expose their retransmission
// traffic.
func (c *Comm) Send(to, tag int, data []float64) {
	c.checkPeer(to, "Send")
	c.checkCrash()
	start := c.now()
	b := payloadBytes(data)
	send, xfer := c.sendCost(to, b)
	for attempt := 0; ; attempt++ {
		c.adv(send)
		c.xfer(xfer, to)
		c.w.countMsg(b)
		if !c.dropped(to, attempt, c.now()) {
			break
		}
		c.adv(c.inj.RetryDelayMS(attempt))
	}
	c.post(to, Message{Tag: tag, Avail: c.now(), Data: share(data)})
	c.commMS += c.now() - start
	c.span(trace.KindSend, start, c.now(), b, to)
}

// ISend is the non-blocking variant of Send: the sender pays only its
// software overhead; the payload becomes available at sender-clock +
// transfer time, overlapping whatever the sender does next. The matching
// Recv is the completion wait. Background transfers do not queue on a
// contended wire (offloaded DMA is outside the host-driven contention
// model).
//
// Under fault injection the offloaded NIC retransmits in the background:
// each lost attempt pushes availability out by a transfer plus the ack
// timeout, while the sender's own clock stays put. Exhausting the budget
// still kills the sender — at the instant the NIC gives up.
func (c *Comm) ISend(to, tag int, data []float64) {
	c.checkPeer(to, "ISend")
	c.checkCrash()
	start := c.now()
	b := payloadBytes(data)
	send, xfer := c.sendCost(to, b)
	c.adv(send)
	avail := c.now()
	for attempt := 0; ; attempt++ {
		avail += xfer
		c.w.countMsg(b)
		if !c.dropped(to, attempt, avail) {
			break
		}
		avail += c.inj.RetryDelayMS(attempt)
	}
	c.post(to, Message{Tag: tag, Avail: avail, Data: share(data)})
	c.commMS += c.now() - start
	c.span(trace.KindSend, start, c.now(), b, to)
}

// Recv receives the oldest message from rank from; its tag must equal
// tag (mismatch panics: it is a program bug, not a data error). A
// payload sent as a Blank arrives as that Blank: never write to it.
//
// A receive from a rank that died before posting the message aborts this
// rank too (PeerCrashError), at the later of the peer's death time and
// this rank's clock — graceful cascade, not a hang.
func (c *Comm) Recv(from, tag int) []float64 {
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
	c.adv(c.recvCost(from, b))
	c.commMS += c.now() - start
	c.span(trace.KindRecv, waited, c.now(), b, from)
	return msg.Data
}

// Bcast broadcasts data from root to all ranks; all ranks must call it.
// The cost model's aggregate BcastTime(p, bytes) bounds everyone's
// completion, mirroring the paper's T_broadcast ≈ 0.23·p.
//
// The returned slice is a single copy shared by every participant: treat
// it as read-only. (Ranks run concurrently in real time; the shared copy
// insulates receivers from the root's buffer reuse but not from each
// other's writes.) Callers that need to mutate the payload must copy it.
// A Blank is shared as itself, with no copy at all.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	c.checkPeer(root, "Bcast")
	c.checkCrash()
	start := c.now()
	p := c.Size()
	var out []float64
	if c.rank == root {
		b := payloadBytes(data)
		done := c.now() + c.w.model.BcastTime(p, b)
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

// Barrier synchronizes all ranks: afterwards every clock equals the
// maximum arrival time plus the model's barrier cost. A rank that dies
// before arriving leaves the barrier instead: survivors synchronize among
// themselves, and the dead rank's death time still bounds the release of
// the barrier generation in which it was expected (modeling failure
// detection).
func (c *Comm) Barrier() {
	c.checkCrash()
	start := c.now()
	mx := c.w.bar.wait(c.rank, start)
	c.waitUntil(mx)
	waited := c.now()
	c.span(trace.KindWait, start, waited, 0, -1)
	c.adv(c.w.model.BarrierTime(c.Size()))
	c.commMS += c.now() - start
	c.span(trace.KindBarrier, waited, c.now(), 0, -1)
}

// Gatherv collects every rank's slice at root. Root receives a per-rank
// slice (a Blank part arrives as that Blank); other ranks receive nil.
func (c *Comm) Gatherv(root int, data []float64) [][]float64 {
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

// Scatterv distributes parts[i] to rank i from root; every rank returns
// its part (a Blank part arrives as that Blank). Only root's parts
// argument is consulted.
func (c *Comm) Scatterv(root int, parts [][]float64) []float64 {
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

// Reduce folds one value per rank with op at root (returned at root;
// zero elsewhere).
func (c *Comm) Reduce(root int, value float64, op ReduceOp) float64 {
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

// Allreduce folds one value per rank and distributes the result.
func (c *Comm) Allreduce(value float64, op ReduceOp) float64 {
	const root = 0
	acc := c.Reduce(root, value, op)
	out := c.Bcast(root, []float64{acc})
	return out[0]
}
