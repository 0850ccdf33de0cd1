// Checkpoint/rollback crash recovery layered over the rank runtime.
//
// Programs opt in by taking a *Checkpointer and calling Save at phase
// boundaries — a coordinated checkpoint: every rank writes its state, a
// header and a body, to stable storage (charged in virtual time), and
// the checkpoint commits iff every rank of the instance contributed
// before the closing barrier released. The supervisor (RunRecoverable)
// replays the program across a sequence of instances: when a rank dies
// mid-run (fault plan crash or drop storm) the run rolls back to the
// last committed checkpoint and re-instantiates the per-rank body on the
// survivors, redistributing shares (callers use dist.Pinned subset by
// member marked speeds). The next instance starts at base = failure
// time + detection latency + restart cost.
//
// Recomputed work, checkpoint writes, detection and restart all appear
// in the virtual clock — checkpoint cost is a new To term in Theorem 1.
// Every decision is a pure function of virtual time, so recovered runs
// stay bit-identical across transports just like plain runs.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// The recovery protocol's prices in virtual time.
const (
	// ckptWriteMBps is the per-rank bandwidth to stable storage for
	// checkpoint writes.
	ckptWriteMBps = 100.0
	// ckptWriteLatencyMS is the fixed per-checkpoint write latency each
	// rank pays regardless of state size.
	ckptWriteLatencyMS = 0.5
	// detectMS is the failure-detection latency charged between an
	// attempt's failure and the start of recovery.
	detectMS = 1.0
	// restartMS is the re-instantiation cost: rebuilding global state
	// from stable storage and respawning the survivor processes.
	restartMS = 5.0
)

// Snapshot is one committed coordinated checkpoint.
type Snapshot struct {
	// Seq is the snapshot's position in the run's global checkpoint
	// history, across attempts.
	Seq int
	// AtMS is the commit instant: the latest contributor's write end.
	AtMS float64
	// Ranks lists the contributing instance's original rank ids,
	// ascending; Parts[i] is the state written by original rank Ranks[i].
	Ranks []int
	Parts []Part
}

// Part is one rank's contribution to a checkpoint: a header of scalars
// and indices, which decoders read, and a body of state values. A
// symbolic run's body is an mpi.Blank that nothing reads: the write is
// priced by the two lengths alone.
type Part struct {
	Head, Body []float64
}

// Instance describes one program instantiation to the factory.
type Instance struct {
	// Cluster is the survivor cluster this instance runs on; instance
	// rank i executes on Cluster.Nodes[i], which is the original
	// cluster's node Ranks[i].
	Cluster *cluster.Cluster
	// Ranks maps instance rank -> original rank id, ascending.
	Ranks []int
	// Resume is the most recent committed checkpoint to roll back to, or
	// nil when the instance must restart from scratch.
	Resume *Snapshot
	// History holds every committed checkpoint so far (Resume is the
	// last entry), for programs whose state accretes across checkpoints.
	History []Snapshot
}

// RecoverableProgram is the per-rank body of a checkpointing computation.
type RecoverableProgram func(c *Comm, ck *Checkpointer) error

// RecoveryEvent records one rollback.
type RecoveryEvent struct {
	// Attempt is the index of the attempt that stopped.
	Attempt int
	// Outcome classifies the failed attempt's fault deaths by original
	// rank id.
	Outcome FaultOutcome
	// FailedAtMS is the failed attempt's makespan; ResumeMS is where the
	// next attempt starts: FailedAtMS + 1 ms detection + 5 ms restart.
	FailedAtMS float64
	ResumeMS   float64
	// ResumeSeq is the global Seq of the snapshot the next attempt
	// resumes from, or -1 for a from-scratch restart.
	ResumeSeq int
	// Survivors lists the original rank ids carried into the next attempt.
	Survivors []int
}

// ErrRecoveryFailed marks a run the recovery supervisor abandoned for a
// priceable reason: no rank survived a failure.
// Schedulers match it with errors.Is to distinguish "this job died on
// this placement" (requeue it) from a program bug (abort the
// simulation). Non-fault errors are never wrapped in it.
var ErrRecoveryFailed = errors.New("mpi: recovery failed")

// recoveryLog is the run's stable storage: committed snapshots survive
// the failure of the attempt that wrote them. It also keeps each
// original rank's checkpoint write time apart: one rank's charges arrive
// in its own program order, while ranks arrive in whatever order the
// engine runs them, and float addition does not associate.
type recoveryLog struct {
	mu      sync.Mutex
	history []Snapshot
	writeMS []float64 // by original rank id
}

func (l *recoveryLog) append(s Snapshot) {
	l.mu.Lock()
	s.Seq = len(l.history)
	l.history = append(l.history, s)
	l.mu.Unlock()
}

func (l *recoveryLog) chargeWrite(rank int, ms float64) {
	l.mu.Lock()
	l.writeMS[rank] += ms
	l.mu.Unlock()
}

// totalWriteMS sums the ranks' write times in rank order; only called
// between attempts, when no rank is running.
func (l *recoveryLog) totalWriteMS() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var tot float64
	for _, ms := range l.writeMS {
		tot += ms
	}
	return tot
}

// snapshots returns the committed history; only called between attempts,
// when no rank is running.
func (l *recoveryLog) snapshots() []Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Snapshot(nil), l.history...)
}

// pendingCkpt tracks one in-flight coordinated checkpoint of an instance.
type pendingCkpt struct {
	parts  []Part
	saved  []bool // by instance rank: its part is in
	count  int
	doneMS float64
	sealed bool
}

// Checkpointer provides the Save collective to one program instance.
type Checkpointer struct {
	log   *recoveryLog
	ranks []int // instance rank -> original rank id

	mu      sync.Mutex
	rankSeq []int // per instance rank: how many Saves it has begun
	pending []*pendingCkpt
}

func newCheckpointer(ranks []int, log *recoveryLog) *Checkpointer {
	return &Checkpointer{log: log, ranks: ranks, rankSeq: make([]int, len(ranks))}
}

// Save is the coordinated-checkpoint collective: every rank of the
// instance must call it the same number of times at the same points of
// the program. The rank writes its state to stable storage — paying
// 0.5 ms + its head and body bytes at 100 MB/s of virtual time, so a
// rank whose crash lands mid-write dies there and contributes nothing —
// then synchronizes on a barrier. The checkpoint commits iff every rank
// contributed by the time the barrier released; otherwise the survivors
// abort with PeerCrashError against the first missing rank, exactly like
// any other dependence on a dead peer.
//
// Commitment is deterministic: a living rank always contributes before
// arriving at the barrier, a dead rank never contributes after leaving
// it, so the contributor set is fixed the instant the barrier releases,
// on every transport.
//
// Save takes ownership of head and body: the committed snapshot holds
// the slices themselves, so the caller must not modify them afterwards.
// Pass a freshly packed header, and a fresh copy of the values or, in a
// symbolic run, a Blank of their length.
func (ck *Checkpointer) Save(c *Comm, head, body []float64) {
	ck.mu.Lock()
	seq := ck.rankSeq[c.rank]
	ck.rankSeq[c.rank]++
	for len(ck.pending) <= seq {
		ck.pending = append(ck.pending, &pendingCkpt{
			parts:  make([]Part, len(ck.ranks)),
			saved:  make([]bool, len(ck.ranks)),
			doneMS: math.Inf(-1),
		})
	}
	p := ck.pending[seq]
	ck.mu.Unlock()

	c.checkCrash()
	start := c.now()
	b := payloadBytes(head) + payloadBytes(body)
	c.adv(ckptWriteLatencyMS + float64(b)/(ckptWriteMBps*1e3))
	end := c.now()
	c.span(trace.KindCheckpoint, start, end, b, -1)
	ck.log.chargeWrite(ck.ranks[c.rank], end-start)

	ck.mu.Lock()
	p.parts[c.rank] = Part{Head: head, Body: body}
	p.saved[c.rank] = true
	p.count++
	if end > p.doneMS {
		p.doneMS = end
	}
	ck.mu.Unlock()

	c.Barrier()

	ck.mu.Lock()
	if p.count == len(ck.ranks) {
		committed := !p.sealed
		p.sealed = true
		ck.mu.Unlock()
		if committed {
			ck.commit(p)
		}
		return
	}
	peer := slices.Index(p.saved, false)
	ck.mu.Unlock()
	at := c.now()
	panic(&PeerCrashError{Rank: c.rank, Peer: peer, AtMS: at})
}

// commit moves a fully-contributed checkpoint to stable storage, keyed by
// the contributing ranks' original ids so later (smaller) instances can
// still interpret the parts. The snapshot takes the sealed checkpoint's
// parts as they are: no rank writes to them again, and every reader
// copies out of them.
func (ck *Checkpointer) commit(p *pendingCkpt) {
	ck.log.append(Snapshot{
		AtMS:  p.doneMS,
		Ranks: append([]int(nil), ck.ranks...),
		Parts: p.parts,
	})
}

// subsetInjector exposes the original fault plan to an instance running
// on a member subset: instance rank i sees the faults planned for
// original rank ranks[i]. Send sequence numbers restart per instance,
// which is deterministic on every transport.
type subsetInjector struct {
	inner FaultInjector
	ranks []int
}

func (s *subsetInjector) CrashTimeMS(rank int) (float64, bool) {
	return s.inner.CrashTimeMS(s.ranks[rank])
}

func (s *subsetInjector) DropSend(from, to, seq int) bool {
	return s.inner.DropSend(s.ranks[from], s.ranks[to], seq)
}

func (s *subsetInjector) RetryDelayMS(failed int) float64 {
	return s.inner.RetryDelayMS(failed)
}

func (s *subsetInjector) MaxSendAttempts() int {
	return s.inner.MaxSendAttempts()
}

// attemptFaults classifies one attempt's joined run error by instance
// rank. Unlike ClassifyFaults it keeps plan crashes, retry-budget deaths
// and peer aborts separate: the supervisor removes the first two from the
// survivor set (their node is gone or its link is unusable) while
// peer-aborted ranks are healthy and rejoin the next instance. ok is
// false if any leaf is not a fault death — such an error is a program
// bug, not a recoverable failure.
func attemptFaults(err error) (crashed, stormed, aborted map[int]float64, ok bool) {
	crashed = map[int]float64{}
	stormed = map[int]float64{}
	aborted = map[int]float64{}
	ok = true
	walkErrors(err, func(e error) {
		var crash *CrashError
		var storm *DropStormError
		var peer *PeerCrashError
		switch {
		case errors.As(e, &crash):
			crashed[crash.Rank] = crash.AtMS
		case errors.As(e, &storm):
			stormed[storm.Rank] = storm.AtMS
		case errors.As(e, &peer):
			aborted[peer.Rank] = peer.AtMS
		default:
			ok = false
		}
	})
	return crashed, stormed, aborted, ok
}

// RunRecoverable is the crash-recovery supervisor: it runs a
// checkpointing program until it finishes or no rank survives. The
// factory is called once per instance with the Instance (member cluster,
// original-rank map, checkpoint to resume from) and returns the per-rank
// body. A fault failure selects survivors (plan crashes and drop-storm
// deaths leave for good; peer-aborted ranks rejoin), advances virtual
// time by the detection + restart cost and replays on them. Every
// failure removes at least one rank for good, so there are at most
// cluster-size of them: the run finishes, or a failure leaves no
// survivor and the run is abandoned with ErrRecoveryFailed. Non-fault
// errors abort immediately. The Result is filled in on failure too:
// a scheduler prices an abandoned run from its attempts and death clocks
// (FailedAtMS). Traces see each attempt's spans with ranks remapped to
// original ids plus one KindRecover span per continuing rank covering
// its rollback window.
func RunRecoverable(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, opts Options, factory func(Instance) (RecoverableProgram, error)) (Result, error) {
	if factory == nil {
		return Result{}, errors.New("mpi: nil recoverable program factory")
	}
	if cl == nil || cl.Size() == 0 {
		return Result{}, errors.New("mpi: nil or empty cluster")
	}
	p := cl.Size()

	log := &recoveryLog{writeMS: make([]float64, p)}
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	curCl := cl
	baseMS := 0.0

	res := Result{
		RankClocks: make([]float64, p),
		ComputeMS:  make([]float64, p),
		CommMS:     make([]float64, p),
	}

	for attempt := 0; ; attempt++ {
		history := log.snapshots()
		inst := Instance{
			Cluster: curCl,
			Ranks:   append([]int(nil), ranks...),
			History: history,
		}
		if len(history) > 0 {
			inst.Resume = &history[len(history)-1]
		}
		prog, err := factory(inst)
		if err != nil {
			return res, fmt.Errorf("mpi: recovery attempt %d: %w", attempt, err)
		}
		if prog == nil {
			return res, fmt.Errorf("mpi: recovery attempt %d: factory returned nil program", attempt)
		}
		ck := newCheckpointer(inst.Ranks, log)

		aopts := opts
		if opts.Faults != nil {
			aopts.Faults = &subsetInjector{inner: opts.Faults, ranks: ranks}
		}
		var sub *trace.Trace
		if opts.Trace != nil {
			sub = trace.New()
			aopts.Trace = sub
		}
		base := baseMS
		body := func(c *Comm) error {
			if base > 0 {
				c.waitUntil(base)
			}
			return prog(c, ck)
		}
		r, runErr := Run(ctx, curCl, model, aopts, body)

		// Fold the attempt into the original-rank accounting before
		// deciding anything: failed attempts consumed real (virtual)
		// resources too.
		if sub != nil {
			for _, s := range sub.Spans() {
				s.Rank = ranks[s.Rank]
				if s.Peer >= 0 && s.Peer < len(ranks) {
					s.Peer = ranks[s.Peer]
				}
				opts.Trace.Add(s)
			}
		}
		res.Messages += r.Messages
		res.BytesMoved += r.BytesMoved
		clocks := make([]float64, len(ranks))
		for i, orig := range ranks {
			if i < len(r.RankClocks) {
				res.RankClocks[orig] = r.RankClocks[i]
				clocks[i] = r.RankClocks[i]
			}
			if i < len(r.ComputeMS) {
				res.ComputeMS[orig] += r.ComputeMS[i]
			}
			if i < len(r.CommMS) {
				res.CommMS[orig] += r.CommMS[i]
			}
		}
		res.Attempts = attempt + 1
		res.Checkpoints = len(log.snapshots())
		res.CheckpointMS = log.totalWriteMS()

		if runErr == nil {
			res.TimeMS = r.TimeMS
			return res, nil
		}

		crashed, stormed, aborted, ok := attemptFaults(runErr)
		if !ok {
			return res, runErr
		}

		// Survivor selection: ranks whose node crashed or whose link
		// exhausted its retry budget are gone for good; peer-aborted
		// ranks are healthy.
		next := make([]int, 0, len(ranks))
		for i, orig := range ranks {
			_, c := crashed[i]
			_, s := stormed[i]
			if !c && !s {
				next = append(next, orig)
			}
		}
		if len(next) == 0 {
			return res, fmt.Errorf("%w: no survivors: %v", ErrRecoveryFailed, runErr)
		}
		if len(next) == len(ranks) {
			// Only possible if the fault classification missed the root
			// cause; bail rather than replay the identical instance.
			return res, fmt.Errorf("mpi: recovery stalled, no rank excluded: %w", runErr)
		}

		outcome := FaultOutcome{Crashed: map[int]float64{}, Aborted: map[int]float64{}}
		for i, t := range crashed {
			outcome.Crashed[ranks[i]] = t
		}
		for i, t := range stormed {
			outcome.Aborted[ranks[i]] = t
		}
		for i, t := range aborted {
			outcome.Aborted[ranks[i]] = t
		}
		outcome.Survivors = len(ranks) - len(crashed) - len(stormed) - len(aborted)

		newBase := r.TimeMS + detectMS + restartMS
		res.Events = append(res.Events, RecoveryEvent{
			Attempt:    attempt,
			Outcome:    outcome,
			FailedAtMS: r.TimeMS,
			ResumeMS:   newBase,
			ResumeSeq:  res.Checkpoints - 1,
			Survivors:  append([]int(nil), next...),
		})
		if opts.Trace != nil {
			cont := make(map[int]bool, len(next))
			for _, orig := range next {
				cont[orig] = true
			}
			for i, orig := range ranks {
				if !cont[orig] {
					continue
				}
				opts.Trace.Add(trace.Span{
					Rank: orig, Kind: trace.KindRecover,
					StartMS: clocks[i], EndMS: newBase, Peer: -1,
				})
			}
		}

		sub2, err := cl.Subset(fmt.Sprintf("%s/attempt%d", cl.Name, attempt+1), next...)
		if err != nil {
			return res, fmt.Errorf("mpi: recovery survivor cluster: %w", err)
		}
		curCl = sub2
		ranks = next
		baseMS = newBase
	}
}
