package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/simnet"
)

// errAborted is the sentinel panic value used to unwind ranks blocked on a
// world whose sibling rank has failed.
var errAborted = errors.New("mpi: run aborted by another rank's failure")

// world is the engine-independent state of one run: the cluster and cost
// model pricing every rank's time, the barrier, who has died and when,
// and the run's traffic totals. It executes programs over a Transport;
// every Engine selector funnels into runWorld, so every mechanism here
// exists in exactly one place.
type world struct {
	cl    *cluster.Cluster
	model simnet.CostModel
	t     Transport
	bar   *maxBarrier

	// deadAt[r] holds Float64bits of rank r's death time. It is stored
	// before the transport broadcasts the death, so the broadcast's
	// happens-before edge publishes it to observers.
	deadAt []atomic.Uint64

	msgs  atomic.Int64
	bytes atomic.Int64
}

func newWorld(cl *cluster.Cluster, model simnet.CostModel, t Transport) *world {
	return &world{
		cl:     cl,
		model:  model,
		t:      t,
		bar:    newMaxBarrier(cl.Size(), t),
		deadAt: make([]atomic.Uint64, cl.Size()),
	}
}

// die announces a fault death: the death time is published, peers blocked
// on (or about to depend on) this rank learn it is gone, and the barrier
// stops counting it. Called at most once per rank, from that rank's own
// execution context as it unwinds.
func (w *world) die(rank int, atMS float64) {
	w.deadAt[rank].Store(math.Float64bits(atMS))
	w.t.BroadcastDeath(rank)
	w.bar.leave(atMS)
}

// peerDeathTime returns the virtual instant at which rank died. Only
// meaningful after Take(rank, ·) returned ok == false.
func (w *world) peerDeathTime(rank int) float64 {
	return math.Float64frombits(w.deadAt[rank].Load())
}

// countMsg records one payload of the given size in the run totals.
func (w *world) countMsg(bytes int) {
	w.msgs.Add(1)
	w.bytes.Add(int64(bytes))
}

// maxBarrier is a reusable all-rank barrier that additionally computes the
// maximum of the values contributed by the participants (the ranks'
// virtual clocks). Generations make it safely reusable back-to-back; the
// transport supplies only the blocking primitive, so the release rule —
// and therefore the released virtual time — is engine-independent by
// construction.
//
// Two generation slots, used alternately, suffice: releasing g opens g+1
// in the other slot, and g's slot is reset only when g+1 releases. By
// then nothing reads g any more, so a barrier allocates nothing once its
// waiter lists have grown:
//   - each waiter of g reads g.max on waking, before it arrives at g+1;
//   - world.die, the only caller of leave, runs in the dying rank's own
//     context, so a waiter of g dies only after it has read g.max;
//   - the releasing rank reads g.max and g.waiters under the lock, and
//     g+1 cannot release before it has woken every waiter of g.
type maxBarrier struct {
	mu      sync.Mutex
	t       Transport
	n       int
	arrived int
	gens    [2]barrierGen
	cur     int // the slot of the open generation
}

type barrierGen struct {
	max     float64
	waiters []int // ranks parked in this generation, in arrival order
}

func newMaxBarrier(n int, t Transport) *maxBarrier {
	b := &maxBarrier{t: t, n: n}
	b.gens[0].max = math.Inf(-1)
	return b
}

// wait blocks until all surviving participants arrive and returns the
// maximum contributed value. The last arrival releases the generation
// without parking; g.max is fully written before any Unpark, and the
// transport's park/unpark edge publishes it to the released waiters.
func (b *maxBarrier) wait(rank int, v float64) float64 {
	b.mu.Lock()
	g := &b.gens[b.cur]
	if v > g.max {
		g.max = v
	}
	b.arrived++
	if b.arrived == b.n {
		mx := g.max
		b.release(g)
		return mx
	}
	g.waiters = append(g.waiters, rank)
	b.mu.Unlock()
	b.t.Park(rank)
	return g.max
}

// leave removes a dead participant. Its death time still bounds the
// release of the current (oldest incomplete) generation — survivors were,
// or would have been, waiting for it there — and later generations
// synchronize among the survivors only. Correct regardless of real
// scheduling: a generation cannot complete while the dead rank is still
// counted, so the contribution always lands in the first barrier the rank
// failed to reach.
func (b *maxBarrier) leave(v float64) {
	b.mu.Lock()
	g := &b.gens[b.cur]
	if v > g.max {
		g.max = v
	}
	b.n--
	if b.n > 0 && b.arrived == b.n {
		b.release(g)
		return
	}
	b.mu.Unlock()
}

// release completes the open generation g, called with b.mu held: it
// opens the next generation in the other slot, unlocks, and wakes g's
// waiters.
func (b *maxBarrier) release(g *barrierGen) {
	waiters := g.waiters
	b.arrived = 0
	b.cur ^= 1
	next := &b.gens[b.cur]
	next.max = math.Inf(-1)
	next.waiters = next.waiters[:0]
	b.mu.Unlock()
	for _, r := range waiters {
		b.t.Unpark(r)
	}
}

// runWorld executes program once per rank over the given transport and
// assembles the Result — the single engine core behind every selector.
func runWorld(cl *cluster.Cluster, model simnet.CostModel, opts Options, program Program, t Transport) (Result, error) {
	p := cl.Size()
	w := newWorld(cl, model, t)
	comms := make([]*Comm, p)
	for r := range comms {
		comms[r] = newComm(w, r, opts)
	}
	errs := make([]error, p+1)
	finals := make([]float64, p)
	runErr := t.Run(func(r int) {
		defer func() {
			finals[r] = t.Now(r)
			if rec := recover(); rec != nil {
				if d, ok := asRankDeath(rec); ok {
					// A fault death excludes this rank gracefully; the
					// world keeps running on the survivors.
					errs[r] = fmt.Errorf("mpi: rank %d: %w", r, d)
					w.die(r, d.deathTime())
					return
				}
				// The DES kernel unwinds the ranks a failure strands with
				// des.ErrKilled once it has reported the deadlock: the same
				// abort the other engines raise themselves.
				if rec == errAborted || rec == des.ErrKilled { //nolint:errorlint // sentinel identity
					errs[r] = fmt.Errorf("mpi: rank %d: %w", r, errAborted)
				} else {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, rec)
				}
				t.Abort()
			}
		}()
		if err := program(comms[r]); err != nil {
			errs[r] = fmt.Errorf("mpi: rank %d: %w", r, err)
			t.Abort()
		}
	})
	if runErr != nil {
		// A failed rank typically strands its peers on empty streams; a
		// substrate like the DES kernel reports that as deadlock before
		// unwinding them. Surface both causes.
		errs[p] = runErr
	}

	res := Result{
		RankClocks: finals,
		ComputeMS:  make([]float64, p),
		CommMS:     make([]float64, p),
		Messages:   w.msgs.Load(),
		BytesMoved: w.bytes.Load(),
		Attempts:   1,
	}
	for r, c := range comms {
		res.ComputeMS[r] = c.compMS
		res.CommMS[r] = c.commMS
		if finals[r] > res.TimeMS {
			res.TimeMS = finals[r]
		}
	}
	return res, errors.Join(errs...)
}
