// Checkpoint/rollback reconfiguration layered over the rank runtime.
//
// Programs opt in by taking a *Checkpointer and calling Save at phase
// boundaries — a coordinated checkpoint: every rank writes its state blob
// to stable storage (charged in virtual time), and the checkpoint commits
// iff every rank of the instance contributed before the closing barrier
// released. The supervisor (RunReconfigurable) replays the program across
// a sequence of instances, each on an arbitrary subset of the original
// cluster: a membership change — planned or not — rolls the run back to
// the last committed checkpoint and re-instantiates the per-rank body on
// the new member set, redistributing shares (callers use dist.Pinned
// subset by member marked speeds).
//
// Membership changes come from two sources sharing that one mechanism:
//
//   - Unplanned: a rank dies mid-run (fault plan crash or drop storm).
//     The next instance runs on the survivors and starts at
//     base = failure time + detection latency + restart cost.
//     A nil reconfig plan makes every membership change unplanned: plain
//     crash recovery.
//   - Planned: a ReconfigEvent stops the running instance at a scheduled
//     virtual instant and the next instance runs on the event's target
//     ranks — shrink, grow, or reshape. No detection latency is charged
//     (the change is scheduled, not discovered):
//     base = stop time + reconfiguration cost.
//
// Recomputed work, checkpoint writes, detection and reconfiguration all
// appear in the virtual clock — checkpoint cost is a new To term in
// Theorem 1. Every decision is a pure function of virtual time, so
// reconfigured runs stay bit-identical across transports just like plain
// runs.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// RecoveryOptions prices the recovery protocol in virtual time.
type RecoveryOptions struct {
	// WriteMBps is the per-rank bandwidth to stable storage for
	// checkpoint writes (default 100 MB/s).
	WriteMBps float64
	// WriteLatencyMS is the fixed per-checkpoint write latency each rank
	// pays regardless of blob size (default 0.5 ms).
	WriteLatencyMS float64
	// DetectMS is the failure-detection latency charged between an
	// attempt's failure and the start of recovery (default 1 ms).
	DetectMS float64
	// RestartMS is the re-instantiation cost: rebuilding global state from
	// stable storage and respawning the survivor processes (default 5 ms).
	RestartMS float64
	// ReconfigMS is the planned-reconfiguration cost charged between a
	// scheduled membership stop and the next instance's start: quiescing,
	// membership agreement and re-instantiation, with no detection
	// latency — the change is scheduled, not discovered
	// (default: RestartMS).
	ReconfigMS float64
	// MaxAttempts bounds UNPLANNED failures, the initial run included
	// (default: cluster size — each recovery loses at least one rank).
	// Planned reconfigurations do not consume the budget.
	MaxAttempts int
}

func (o RecoveryOptions) withDefaults(size int) RecoveryOptions {
	if o.WriteMBps == 0 {
		o.WriteMBps = 100
	}
	if o.WriteLatencyMS == 0 {
		o.WriteLatencyMS = 0.5
	}
	if o.DetectMS == 0 {
		o.DetectMS = 1
	}
	if o.RestartMS == 0 {
		o.RestartMS = 5
	}
	if o.ReconfigMS == 0 {
		o.ReconfigMS = o.RestartMS
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = size
	}
	return o
}

func (o RecoveryOptions) validate() error {
	switch {
	case o.WriteMBps < 0 || math.IsNaN(o.WriteMBps) || math.IsInf(o.WriteMBps, 0):
		return fmt.Errorf("mpi: recovery write bandwidth %g invalid", o.WriteMBps)
	case o.WriteLatencyMS < 0 || math.IsNaN(o.WriteLatencyMS):
		return fmt.Errorf("mpi: recovery write latency %g invalid", o.WriteLatencyMS)
	case o.DetectMS < 0 || math.IsNaN(o.DetectMS):
		return fmt.Errorf("mpi: recovery detection latency %g invalid", o.DetectMS)
	case o.RestartMS < 0 || math.IsNaN(o.RestartMS):
		return fmt.Errorf("mpi: recovery restart cost %g invalid", o.RestartMS)
	case o.ReconfigMS < 0 || math.IsNaN(o.ReconfigMS):
		return fmt.Errorf("mpi: reconfiguration cost %g invalid", o.ReconfigMS)
	case o.MaxAttempts < 1:
		return fmt.Errorf("mpi: recovery needs MaxAttempts >= 1, got %d", o.MaxAttempts)
	}
	return nil
}

// ReconfigEvent is one planned membership change: at virtual instant
// AtMS the running instance is stopped at its last committed checkpoint
// and the run continues on Ranks. The stop is cooperative in virtual
// time only — work since the last checkpoint is replayed, exactly like
// a rollback, but the node that leaves is healthy and may rejoin later.
type ReconfigEvent struct {
	// AtMS is the virtual instant the running instance is stopped.
	AtMS float64
	// Ranks lists the original-cluster node ids the run continues on,
	// strictly ascending. The set may shrink, grow or reshape membership
	// arbitrarily; target ranks that already crashed are excluded when
	// the event fires.
	Ranks []int
}

// validateReconfigPlan checks a planned-membership schedule against the
// original cluster size: instants finite, non-negative and strictly
// ascending, target sets non-empty with strictly ascending in-range
// ranks.
func validateReconfigPlan(plan []ReconfigEvent, size int) error {
	prev := math.Inf(-1)
	for i, ev := range plan {
		if math.IsNaN(ev.AtMS) || math.IsInf(ev.AtMS, 0) || ev.AtMS < 0 {
			return fmt.Errorf("mpi: reconfig event %d at invalid instant %g", i, ev.AtMS)
		}
		if ev.AtMS <= prev {
			return fmt.Errorf("mpi: reconfig event %d at %g ms not after %g ms", i, ev.AtMS, prev)
		}
		prev = ev.AtMS
		if len(ev.Ranks) == 0 {
			return fmt.Errorf("mpi: reconfig event %d has no target ranks", i)
		}
		last := -1
		for _, r := range ev.Ranks {
			if r < 0 || r >= size {
				return fmt.Errorf("mpi: reconfig event %d rank %d out of range [0,%d)", i, r, size)
			}
			if r <= last {
				return fmt.Errorf("mpi: reconfig event %d ranks not strictly ascending: %v", i, ev.Ranks)
			}
			last = r
		}
	}
	return nil
}

// Snapshot is one committed coordinated checkpoint.
type Snapshot struct {
	// Seq is the snapshot's position in the run's global checkpoint
	// history, across attempts.
	Seq int
	// AtMS is the commit instant: the latest contributor's write end.
	AtMS float64
	// Ranks lists the contributing instance's original rank ids,
	// ascending; Parts[i] is the blob written by original rank Ranks[i].
	Ranks []int
	Parts [][]float64
}

// Instance describes one program instantiation to the factory.
type Instance struct {
	// Attempt counts instantiations from 0 (the initial run).
	Attempt int
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
	// BaseMS is the virtual instant this instance starts at: 0 for the
	// initial run, failure time + DetectMS + RestartMS afterwards.
	BaseMS float64
}

// RecoverableProgram is the per-rank body of a checkpointing computation.
type RecoverableProgram func(c Comm, ck *Checkpointer) error

// RecoveryEvent records one rollback or planned reconfiguration.
type RecoveryEvent struct {
	// Attempt is the index of the attempt that stopped (for a planned
	// event applied between attempts: the attempt about to start).
	Attempt int
	// Planned reports a scheduled membership change (ReconfigEvent)
	// rather than a crash rollback: no detection latency is charged, and
	// any rank that stopped at the scheduled instant is healthy. A
	// reconfiguration whose stop window also saw a real crash is
	// recorded as unplanned — the crash charge dominates.
	Planned bool
	// Outcome classifies the failed attempt's fault deaths by original
	// rank id.
	Outcome FaultOutcome
	// FailedAtMS is the failed attempt's makespan; ResumeMS is where the
	// next attempt starts (FailedAtMS + DetectMS + RestartMS).
	FailedAtMS float64
	ResumeMS   float64
	// ResumeSeq is the global Seq of the snapshot the next attempt
	// resumes from, or -1 for a from-scratch restart.
	ResumeSeq int
	// Survivors lists the original rank ids carried into the next attempt.
	Survivors []int
}

// RecoveredResult is a Result plus the recovery bookkeeping. The embedded
// Result is indexed by ORIGINAL rank id: RankClocks keeps a dead rank's
// final (death) clock, ComputeMS/CommMS sum each rank's time across
// attempts, TimeMS is the final attempt's makespan, and Messages/
// BytesMoved total every attempt's traffic.
type RecoveredResult struct {
	Result
	// Attempts is the number of instances run (1 = no membership change).
	Attempts int
	// Recovered reports whether any UNPLANNED rollback happened;
	// Reconfigs counts the planned membership changes applied.
	Recovered bool
	Reconfigs int
	// Checkpoints counts committed snapshots; CheckpointMS is the total
	// virtual time ranks spent writing them (committed or not).
	Checkpoints  int
	CheckpointMS float64
	// Events records each rollback in order.
	Events []RecoveryEvent
}

// ErrRecoveryFailed marks a run the recovery supervisor abandoned for a
// priceable reason — the attempt budget ran out or no rank survived.
// Schedulers match it with errors.Is to distinguish "this job died on
// this placement" (requeue it) from a program bug (abort the
// simulation). Non-fault errors are never wrapped in it.
var ErrRecoveryFailed = errors.New("mpi: recovery failed")

// FailedAtMS returns the virtual instant an abandoned run stopped
// consuming the machine: the latest of the per-rank death/finish clocks
// and any rollback's resume instant. Meaningful when RunReconfigurable
// returned ErrRecoveryFailed (TimeMS is only set on success).
func (r RecoveredResult) FailedAtMS() float64 {
	at := 0.0
	for _, c := range r.RankClocks {
		if c > at {
			at = c
		}
	}
	for _, ev := range r.Events {
		if ev.ResumeMS > at {
			at = ev.ResumeMS
		}
	}
	return at
}

// recoveryLog is the run's stable storage: committed snapshots survive
// the failure of the attempt that wrote them.
type recoveryLog struct {
	mu      sync.Mutex
	history []Snapshot
	writeMS float64
}

func (l *recoveryLog) append(s Snapshot) {
	l.mu.Lock()
	s.Seq = len(l.history)
	l.history = append(l.history, s)
	l.mu.Unlock()
}

func (l *recoveryLog) chargeWrite(ms float64) {
	l.mu.Lock()
	l.writeMS += ms
	l.mu.Unlock()
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
	parts  [][]float64
	count  int
	doneMS float64
	sealed bool
}

// Checkpointer provides the Save collective to one program instance.
type Checkpointer struct {
	opts  RecoveryOptions
	log   *recoveryLog
	ranks []int // instance rank -> original rank id

	mu      sync.Mutex
	rankSeq []int // per instance rank: how many Saves it has begun
	pending []*pendingCkpt
}

func newCheckpointer(opts RecoveryOptions, ranks []int, log *recoveryLog) *Checkpointer {
	return &Checkpointer{opts: opts, log: log, ranks: ranks, rankSeq: make([]int, len(ranks))}
}

// Save is the coordinated-checkpoint collective: every rank of the
// instance must call it the same number of times at the same points of
// the program. The rank writes its state blob to stable storage — paying
// WriteLatencyMS + bytes/WriteMBps of virtual time, so a rank whose crash
// lands mid-write dies there and contributes nothing — then synchronizes
// on a barrier. The checkpoint commits iff every rank contributed by the
// time the barrier released; otherwise the survivors abort with
// PeerCrashError against the first missing rank, exactly like any other
// dependence on a dead peer.
//
// Commitment is deterministic: a living rank always contributes before
// arriving at the barrier, a dead rank never contributes after leaving
// it, so the contributor set is fixed the instant the barrier releases,
// on every transport.
func (ck *Checkpointer) Save(c Comm, state []float64) {
	cc, ok := c.(*comm)
	if !ok {
		panic(fmt.Sprintf("mpi: Checkpointer.Save needs a runtime Comm, got %T", c))
	}
	ck.mu.Lock()
	seq := ck.rankSeq[cc.rank]
	ck.rankSeq[cc.rank]++
	for len(ck.pending) <= seq {
		ck.pending = append(ck.pending, &pendingCkpt{
			parts:  make([][]float64, len(ck.ranks)),
			doneMS: math.Inf(-1),
		})
	}
	p := ck.pending[seq]
	ck.mu.Unlock()

	cc.checkCrash()
	start := cc.now()
	b := payloadBytes(state)
	cc.adv(cc.stretch(ck.opts.WriteLatencyMS + float64(b)/(ck.opts.WriteMBps*1e3)))
	end := cc.now()
	cc.span(trace.KindCheckpoint, start, end, b, -1)
	ck.log.chargeWrite(end - start)

	ck.mu.Lock()
	p.parts[cc.rank] = copySlice(state)
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
	peer := 0
	for i, part := range p.parts {
		if part == nil {
			peer = i
			break
		}
	}
	ck.mu.Unlock()
	at := cc.now()
	panic(&PeerCrashError{Rank: cc.rank, Peer: peer, AtMS: at})
}

// commit moves a fully-contributed checkpoint to stable storage, keyed by
// the contributing ranks' original ids so later (smaller) instances can
// still interpret the parts.
func (ck *Checkpointer) commit(p *pendingCkpt) {
	parts := make([][]float64, len(p.parts))
	for i, s := range p.parts {
		parts[i] = copySlice(s)
	}
	ck.log.append(Snapshot{
		AtMS:  p.doneMS,
		Ranks: append([]int(nil), ck.ranks...),
		Parts: parts,
	})
}

// subsetInjector exposes the original fault plan to an instance running
// on a member subset, overlaying the next planned reconfiguration stop:
// instance rank i sees the faults planned for original rank ranks[i],
// with its crash time capped at stopMS (the armed ReconfigEvent instant,
// +Inf when none is armed — a planned stop IS a crash to the transport,
// only the supervisor knows the node is healthy). inner may be nil when
// only a planned stop is armed. Send sequence numbers restart per
// instance, which is deterministic on both transports.
type subsetInjector struct {
	inner  FaultInjector
	ranks  []int
	stopMS float64
}

func (s *subsetInjector) CrashTimeMS(rank int) (float64, bool) {
	if s.inner != nil {
		if t, ok := s.inner.CrashTimeMS(s.ranks[rank]); ok && t <= s.stopMS {
			return t, true
		}
	}
	if math.IsInf(s.stopMS, 1) {
		return 0, false
	}
	return s.stopMS, true
}

// plannedOnly reports whether an instance rank's death at its effective
// crash time is the armed planned stop (the node is healthy) rather
// than a plan crash. A real crash at exactly the stop instant wins: the
// node is gone either way.
func (s *subsetInjector) plannedOnly(rank int) bool {
	if math.IsInf(s.stopMS, 1) {
		return false
	}
	if s.inner == nil {
		return true
	}
	t, ok := s.inner.CrashTimeMS(s.ranks[rank])
	return !ok || t > s.stopMS
}

func (s *subsetInjector) DropSend(from, to, seq int) bool {
	if s.inner == nil {
		return false
	}
	return s.inner.DropSend(s.ranks[from], s.ranks[to], seq)
}

func (s *subsetInjector) RetryDelayMS(failed int) float64 {
	if s.inner == nil {
		return 0
	}
	return s.inner.RetryDelayMS(failed)
}

func (s *subsetInjector) MaxSendAttempts() int {
	if s.inner == nil {
		return 1
	}
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

// RunReconfigurable is the reconfiguration supervisor: it runs a
// checkpointing program across planned membership changes and unplanned
// failures, and a nil plan means plain crash recovery. The factory is
// called once per instance with the Instance (member cluster,
// original-rank map, checkpoint to resume from) and returns the per-rank
// body; the supervisor runs it until the run finishes or membership
// changes:
//
//   - An unplanned fault failure selects survivors (plan crashes and
//     drop-storm deaths leave for good; peer-aborted ranks rejoin),
//     advances virtual time by the detection + restart cost and replays,
//     up to MaxAttempts unplanned failures.
//   - A planned ReconfigEvent stops the instance at its scheduled
//     instant, advances virtual time by the reconfiguration cost alone,
//     and replays on the event's target ranks — minus any rank that
//     already truly crashed, which never rejoins. An event the clock has
//     already passed (an earlier rollback overshot it) reshapes the next
//     instance directly, riding the restart charge already being paid.
//
// The plan consumed, the run finishes on whatever membership is left; a
// run that completes before an event's instant never sees it. Non-fault
// errors abort immediately. Traces see each attempt's spans with ranks
// remapped to original ids plus one KindRecover span per continuing rank
// covering its rollback window.
func RunReconfigurable(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, opts Options, ropts RecoveryOptions, plan []ReconfigEvent, factory func(Instance) (RecoverableProgram, error)) (RecoveredResult, error) {
	if factory == nil {
		return RecoveredResult{}, errors.New("mpi: nil recoverable program factory")
	}
	if cl == nil || cl.Size() == 0 {
		return RecoveredResult{}, errors.New("mpi: nil or empty cluster")
	}
	ropts = ropts.withDefaults(cl.Size())
	if err := ropts.validate(); err != nil {
		return RecoveredResult{}, err
	}
	p := cl.Size()
	if err := validateReconfigPlan(plan, p); err != nil {
		return RecoveredResult{}, err
	}

	log := &recoveryLog{}
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	curCl := cl
	baseMS := 0.0
	dead := make([]bool, p) // by original rank id, across all attempts
	eventIdx := 0
	failures := 0 // unplanned rollbacks so far

	res := RecoveredResult{Result: Result{
		RankClocks: make([]float64, p),
		ComputeMS:  make([]float64, p),
		CommMS:     make([]float64, p),
	}}
	resumeSeq := func() int { return len(log.snapshots()) - 1 }
	liveTarget := func(target []int) []int {
		next := make([]int, 0, len(target))
		for _, r := range target {
			if !dead[r] {
				next = append(next, r)
			}
		}
		return next
	}

	for attempt := 0; ; attempt++ {
		if failures >= ropts.MaxAttempts {
			return res, fmt.Errorf("%w: exhausted %d attempts", ErrRecoveryFailed, ropts.MaxAttempts)
		}
		// Planned events the clock already passed reshape the coming
		// instance in place, without another stop/replay cycle.
		for eventIdx < len(plan) && plan[eventIdx].AtMS <= baseMS {
			ev := plan[eventIdx]
			eventIdx++
			next := liveTarget(ev.Ranks)
			if len(next) == 0 {
				return res, fmt.Errorf("%w: reconfiguration at %g ms has no live target rank", ErrRecoveryFailed, ev.AtMS)
			}
			res.Reconfigs++
			res.Events = append(res.Events, RecoveryEvent{
				Attempt: attempt, Planned: true,
				FailedAtMS: baseMS, ResumeMS: baseMS,
				ResumeSeq: resumeSeq(), Survivors: append([]int(nil), next...),
			})
			sub, err := cl.Subset(fmt.Sprintf("%s/reconfig%d", cl.Name, res.Reconfigs), next...)
			if err != nil {
				return res, fmt.Errorf("mpi: reconfiguration member cluster: %w", err)
			}
			curCl = sub
			ranks = next
		}

		history := log.snapshots()
		inst := Instance{
			Attempt: attempt,
			Cluster: curCl,
			Ranks:   append([]int(nil), ranks...),
			History: history,
			BaseMS:  baseMS,
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
		ck := newCheckpointer(ropts, inst.Ranks, log)

		stopMS := math.Inf(1)
		if eventIdx < len(plan) {
			stopMS = plan[eventIdx].AtMS
		}
		aopts := opts
		var inj *subsetInjector
		if opts.Faults != nil || !math.IsInf(stopMS, 1) {
			inj = &subsetInjector{inner: opts.Faults, ranks: ranks, stopMS: stopMS}
			aopts.Faults = inj
		}
		var sub *trace.Trace
		if opts.Trace != nil {
			sub = trace.New()
			aopts.Trace = sub
		}
		base := baseMS
		body := func(c Comm) error {
			if base > 0 {
				c.(*comm).waitUntil(base)
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
		res.CheckpointMS = log.writeMS

		if runErr == nil {
			res.TimeMS = r.TimeMS
			res.Recovered = failures > 0
			return res, nil
		}

		crashed, stormed, aborted, ok := attemptFaults(runErr)
		if !ok {
			return res, runErr
		}

		// Split real plan deaths from the armed planned stop: a rank
		// whose only reason to die at the stop instant was the scheduled
		// reconfiguration is healthy.
		plannedStop := false
		for i := range crashed {
			if inj != nil && inj.plannedOnly(i) {
				plannedStop = true
				delete(crashed, i)
			}
		}
		unplanned := len(crashed)+len(stormed) > 0

		// Survivor selection: ranks whose node crashed or whose link
		// exhausted its retry budget are gone for good; peer-aborted and
		// planned-stopped ranks are healthy.
		for i := range crashed {
			dead[ranks[i]] = true
		}
		for i := range stormed {
			dead[ranks[i]] = true
		}
		var next []int
		if plannedStop {
			next = liveTarget(plan[eventIdx].Ranks)
			eventIdx++
			res.Reconfigs++
		} else {
			next = liveTarget(ranks)
		}
		if len(next) == 0 {
			return res, fmt.Errorf("%w: no survivors: %v", ErrRecoveryFailed, runErr)
		}
		if !plannedStop && len(next) == len(ranks) {
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

		charge := ropts.DetectMS + ropts.RestartMS
		if !unplanned {
			charge = ropts.ReconfigMS
		} else {
			failures++
		}
		newBase := r.TimeMS + charge
		res.Events = append(res.Events, RecoveryEvent{
			Attempt:    attempt,
			Planned:    !unplanned,
			Outcome:    outcome,
			FailedAtMS: r.TimeMS,
			ResumeMS:   newBase,
			ResumeSeq:  resumeSeq(),
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
