package mpi

// Message is the unit of transport between ranks. Avail is the virtual
// instant at which the payload is fully usable at the receiver (transfer
// complete; receive-side overhead not yet charged).
type Message struct {
	Tag   int
	Avail float64
	Data  []float64
}

// Transport is the engine-specific substrate beneath the shared rank
// runtime: how ranks execute and block, how payloads move between them,
// and how a dying rank interrupts blocked peers. Everything else — clock
// charging policy, message matching, the max-reduction barrier, the
// crash/tombstone fault protocol, traffic accounting, trace emission —
// lives in the shared runtime (runtime.go), so a new execution backend is
// exactly one Transport implementation. Three ship with the package: the
// live transport (NewLiveTransport, one goroutine per rank and one mailbox
// per receiving rank), the DES transport (NewDESTransport, ranks as
// discrete-event processes, optionally contending for a simnet.Wire), and
// the symbolic fast-forward transport (NewSymbolicTransport, cooperative
// ranks under a sequential scheduler with closed-form clock arithmetic).
//
// A Transport is single-use: it is constructed for one run of a fixed
// number of ranks and driven by exactly one Run call.
type Transport interface {
	// Run executes body once per rank, each in the execution context the
	// transport provides (goroutine, DES process, ...), and returns after
	// every rank has finished. The returned error reports a substrate
	// failure (e.g. the DES kernel detecting deadlock); per-rank program
	// errors travel through the runtime, not through Run.
	Run(body func(rank int)) error

	// Now returns rank's current virtual time (ms). Advance moves it
	// forward by dt >= 0; WaitUntil moves it to at least t. All three must
	// be called from rank's own execution context.
	Now(rank int) float64
	Advance(rank int, dt float64)
	WaitUntil(rank int, t float64)

	// Occupy charges rank the medium-occupancy time durMS of driving a
	// payload across the network to rank to. This is the wire-contention
	// hook: a contended transport queues for the medium on top of durMS.
	Occupy(rank int, durMS float64, to int)

	// Post delivers m on the from->to stream; m.Avail is the instant the
	// payload becomes usable at the receiver. Posting to a dead rank is a
	// silent no-op. Post never blocks: streams are unbounded, so a rank
	// may post any number of messages ahead of the matching Takes.
	Post(from, to int, m Message)

	// Take blocks rank to until a message from rank from is available and
	// returns it. On return, to's virtual clock is >= the instant m was
	// posted; callers still must WaitUntil(m.Avail). ok is false when the
	// peer died and every message it posted before dying has been
	// consumed: nothing more will ever arrive.
	Take(from, to int) (m Message, ok bool)

	// Park blocks rank until another rank Unparks it — the blocking
	// primitive under the runtime's barrier. At most one Park per rank is
	// outstanding at any time.
	Park(rank int)
	Unpark(rank int)

	// BroadcastDeath unblocks peers blocked on (or about to depend on) the
	// dead rank: their Take(rank, ·) calls drain any messages it posted
	// before dying and then return ok == false, and their Post(·, rank)
	// calls become no-ops. The runtime publishes the death time before
	// calling it; atMS is provided for transports that deliver it in-band.
	BroadcastDeath(rank int, atMS float64)

	// Abort hard-aborts the run after a non-fault rank failure, so blocked
	// peers unwind instead of hanging. A transport whose substrate already
	// detects the resulting stall (the DES kernel's deadlock report) may
	// implement it as a no-op.
	Abort()
}

// fifo is a head-indexed FIFO of messages on one (from, to) stream, shared
// by the live and symbolic transports. Push is an append; pop is an index
// bump that rewinds to the start of the backing array once the queue
// drains, so a stream in steady use allocates nothing.
type fifo struct {
	items []Message
	head  int
}

func (s *fifo) push(m Message) { s.items = append(s.items, m) }
func (s *fifo) empty() bool    { return s.head >= len(s.items) }

func (s *fifo) pop() Message {
	m := s.items[s.head]
	s.items[s.head] = Message{} // drop the payload reference
	s.head++
	if s.head == len(s.items) {
		s.items = s.items[:0]
		s.head = 0
	}
	return m
}
