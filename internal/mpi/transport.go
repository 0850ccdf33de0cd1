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
// crash fault protocol, traffic accounting, trace emission — lives in the
// shared runtime (runtime.go), and the receiving side of every stream —
// when a blocked rank may resume — lives in one mailbox per rank (below),
// so a new execution backend is exactly one Transport implementation that
// decides only how an owner blocks and how it is woken. Three ship with
// the package: the live transport (NewLiveTransport, one goroutine per
// rank, a mailbox under a mutex), the DES transport (NewDESTransport,
// ranks as discrete-event processes whose deliveries are kernel events,
// optionally contending for a simnet.Wire), and the symbolic fast-forward
// transport (NewSymbolicTransport, cooperative ranks under a sequential
// scheduler with closed-form clock arithmetic).
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
	// calling it.
	BroadcastDeath(rank int)

	// Abort hard-aborts the run after a non-fault rank failure, so blocked
	// peers unwind instead of hanging. A transport whose substrate already
	// detects the resulting stall (the DES kernel's deadlock report) may
	// implement it as a no-op.
	Abort()
}

// What a mailbox's owner is blocked on: a source rank (>= 0, in Take),
// its barrier token (in Park), or nothing.
const (
	waitNone = -1
	waitPark = -2
)

// mailbox is the receiving side of one rank, written once for all three
// transports: its incoming streams, which sources have died, what the
// owner is blocked on, and its pending barrier token. Its methods only
// update that state and report whether the owner must block (take, park)
// or be woken (post, unpark, markDead, interrupt); each transport supplies
// the blocking itself — live under a mutex with a wake channel, symbolic
// through its run queue, DES through Proc.Suspend and Wake.
//
// The protocol: an owner that must block has its wait recorded here and
// tries again once woken. A waker that finds the owner waiting on its
// event clears the wait and reports the wake, so each wait is woken once.
// A source's death is only marked after every message it posted is in its
// stream, and take reads the stream before the death, so a dead peer's
// messages are drained before the peer reads as dead.
type mailbox struct {
	self    int
	streams []fifo // streams[from]
	// dead[from]: from died a fault death. dead[self] marks the owner
	// dead, and posts to a dead owner are dropped.
	dead    []bool
	waiting int  // waitNone, waitPark, or the source rank take waits on
	token   bool // pending barrier token (capacity-1 Park semantics)
}

// newMailboxes returns one mailbox per rank of a size-rank run, backed by
// two shared size² arrays.
func newMailboxes(size int) []mailbox {
	boxes := make([]mailbox, size)
	streams := make([]fifo, size*size)
	dead := make([]bool, size*size)
	for to := range boxes {
		boxes[to] = mailbox{
			self:    to,
			streams: streams[to*size : (to+1)*size : (to+1)*size],
			dead:    dead[to*size : (to+1)*size : (to+1)*size],
			waiting: waitNone,
		}
	}
	return boxes
}

// wakeIf clears the owner's wait and reports true if it is blocked on
// event.
func (b *mailbox) wakeIf(event int) bool {
	if b.waiting != event {
		return false
	}
	b.waiting = waitNone
	return true
}

// post appends m to from's stream, or drops it if the owner is dead, and
// reports whether the owner must be woken.
func (b *mailbox) post(from int, m Message) (wake bool) {
	if b.dead[b.self] {
		return false
	}
	b.streams[from].push(m)
	return b.wakeIf(from)
}

// take pops the oldest message from from's stream. With the stream empty,
// ok is false if from has died, and otherwise wait is true: the owner is
// recorded as waiting on from and must block, then take again.
func (b *mailbox) take(from int) (m Message, ok, wait bool) {
	if s := &b.streams[from]; !s.empty() {
		return s.pop(), true, false
	}
	if b.dead[from] {
		return Message{}, false, false
	}
	b.waiting = from
	return Message{}, false, true
}

// park consumes the barrier token, or records that the owner waits for it
// and reports that it must block, then park again.
func (b *mailbox) park() (wait bool) {
	if b.token {
		b.token = false
		return false
	}
	b.waiting = waitPark
	return true
}

// unpark hands the owner its barrier token, kept until a park consumes it,
// and reports whether the owner must be woken.
func (b *mailbox) unpark() (wake bool) {
	b.token = true
	return b.wakeIf(waitPark)
}

// markDead records that from died and reports whether the owner, blocked
// on from's stream, must be woken to drain it and see the death.
func (b *mailbox) markDead(from int) (wake bool) {
	b.dead[from] = true
	return b.wakeIf(from)
}

// interrupt clears whatever the owner is blocked on and reports whether
// it was blocked, for a transport that aborts the run.
func (b *mailbox) interrupt() (wake bool) {
	wake = b.waiting != waitNone
	b.waiting = waitNone
	return wake
}

// fifo is a head-indexed FIFO of messages on one (from, to) stream. Push
// is an append; pop is an index bump that rewinds to the start of the
// backing array once the queue drains, so a stream in steady use
// allocates nothing.
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
