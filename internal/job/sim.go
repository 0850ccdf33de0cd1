package job

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Options configures one shared-cluster simulation.
type Options struct {
	// MPI carries the engine (and any fault plan) for the inner virtual
	// runs. Engines are bit-identical in virtual time, so the simulated
	// schedule — and therefore every reported number — is too.
	MPI mpi.Options
	// Alloc carries the lease acquire/release charges.
	Alloc cluster.AllocatorOptions
	// Seed drives the workloads' deterministic inputs.
	Seed int64
	// Health is the node down/up schedule on the shared cluster's
	// virtual clock; the zero value keeps every node healthy forever.
	Health cluster.HealthSpec
	// Retry bounds requeues of jobs whose lease lost its survivor set
	// and sets the checkpoint cadence of fault-scheduled runs.
	Retry RetrySpec
	// Admission is the control in front of the queue.
	Admission AdmissionSpec
	// Membership is the planned drain/join schedule on the shared
	// cluster's virtual clock; the zero plan keeps membership fixed.
	// Unlike Health's failures, drains are graceful: running leases
	// finish undisturbed.
	Membership cluster.MembershipPlan
	// Autoscale enables the isospeed-efficiency autoscaler; the zero
	// spec keeps the active set exactly as Membership and Health leave
	// it.
	Autoscale AutoscaleSpec
	// Memo, when non-nil, is the inner-run memo this call reads and
	// fills, shared with every other call given the same Memo; nil keeps
	// a private memo for this call alone.
	Memo *Memo
}

// JobResult is one job's fate under a policy.
type JobResult struct {
	Job
	// Ranks is the leased placement on the shared cluster, job rank
	// order, as granted at admission (node failures may later shrink
	// the lease itself, not this record). Nil when the job never ran.
	Ranks []int
	// StartMS is when computation began (lease ready), FinishMS when it
	// ended; WaitMS = StartMS - ArrivalMS includes queueing and the
	// acquire charge (and, for retried jobs, earlier failed leases),
	// RunMS = FinishMS - StartMS.
	StartMS  float64
	FinishMS float64
	WaitMS   float64
	RunMS    float64
	// Work is the executed flop count.
	Work float64
	// Es is the achieved isospeed-efficiency of the job as the tenant
	// experienced it: W over response time (arrival to finish) on the
	// leased subset's marked speed.
	Es float64
	// EsDedicated is the dedicated-cluster baseline: the same job on
	// the same placement with zero wait, zero lease charges and no
	// faults — what the tenant would have achieved had it not shared
	// the (degrading) machine.
	EsDedicated float64
	// Retention is Es / EsDedicated — the fraction of dedicated-cluster
	// efficiency that survived contention and faults.
	Retention float64
	// Status is the job's terminal fate; Retries counts requeues after
	// terminal lease failures; Recoveries counts checkpoint rollbacks
	// across all its leases.
	Status     JobStatus
	Retries    int
	Recoveries int
}

// Result is one policy's full simulation outcome.
type Result struct {
	Policy string
	// Jobs is indexed by job ID.
	Jobs []JobResult
	// MakespanMS is the virtual time of the last lease release.
	MakespanMS float64
	// Utilization is busy node-ms over cluster node-ms across the
	// makespan.
	Utilization float64
	// Per-status counts over every job: Completed, Rejected, Shed, ...
	tally
	// Reconfigs counts applied membership changes: plan drains and
	// joins plus autoscaler moves.
	Reconfigs int
	// Scale is the autoscaler's window-by-window record; nil when the
	// autoscaler is disabled.
	Scale []ScaleSample
}

// tally counts jobs by terminal status: Completed + Rejected + Shed +
// Failed + Starved always equals the jobs added. Retried counts jobs
// that re-entered the queue at least once, Recovered the completed jobs
// that survived at least one rollback.
type tally struct {
	Completed int
	Rejected  int
	Shed      int
	Failed    int
	Starved   int
	Retried   int
	Recovered int
}

// add counts one job's fate.
func (t *tally) add(jr JobResult) {
	switch jr.Status {
	case StatusDone:
		t.Completed++
		if jr.Recoveries > 0 {
			t.Recovered++
		}
	case StatusRejected:
		t.Rejected++
	case StatusShed:
		t.Shed++
	case StatusFailed:
		t.Failed++
	case StatusStarved:
		t.Starved++
	}
	if jr.Retries > 0 {
		t.Retried++
	}
}

// jobState is the scheduler's mutable per-job bookkeeping.
type jobState struct {
	// gen bumps on every queue entry and exit so a pending shed timer
	// can tell whether the job is still in the queue entry it targeted.
	gen       int
	retries   int
	rollbacks int
}

// sim is the state machine of one Simulate call: one handler method per
// event kind on the shared DES clock (arrive, shed, release, retry,
// down, up, drain, join). Handlers return their error; at keeps the
// first one and drops every later event.
type sim struct {
	ctx   context.Context
	model simnet.CostModel
	opts  Options
	pol   Policy
	jobs  []Job
	k     *des.Kernel
	alloc *cluster.Allocator
	memo  *Memo
	ests  map[string]workload.Workload // by workload name
	est   Estimator                    // the policies' work estimate
	// downsAt holds each node's scheduled down instants, ascending.
	downsAt [][]float64
	// shrinks is set when failures, drains or the autoscaler can take
	// capacity away, so a queued job may legitimately never fit again.
	shrinks       bool
	as            *autoscaler    // nil when the autoscaler is off
	queue         []*Job         // in queue-entry order
	queuedBy      map[string]int // queued jobs per tenant
	results       []JobResult    // by job ID; Status "" until decided
	states        []jobState     // by job ID
	lastReleaseMS float64
	reconfigs     int
	err           error // the first handler error
}

// Simulate runs the job stream on one shared cluster under the given
// policy, advancing arrivals, leases, node failures and completions on
// a single DES clock. Jobs execute as real virtual-time runs (symbolic
// mode: full timing and traffic, no host arithmetic) on their leased
// subset, so a lease on nodes {7,3} genuinely runs rank 0 on node 7.
//
// With a node-fault schedule (opts.Health), a node crashing mid-lease
// shrinks the lease to the survivors and the run rolls back to its last
// coordinated checkpoint and replays on them (mpi.RunRecoverable with
// dist.Pinned redistribution), all charged in virtual time. A job whose
// lease loses every node re-enters the queue under the bounded
// exponential-backoff budget in opts.Retry; admission control
// (opts.Admission) rejects and sheds deterministically. With the zero
// Health/Retry/Admission the simulation is identical — event for event,
// bit for bit — to the undisturbed stream. Every section composes with
// the others: a membership plan and the autoscaler run under the same
// outages and admission control.
func Simulate(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, jobs []Job, pol Policy, opts Options) (Result, error) {
	if cl == nil || model == nil {
		return Result{}, fmt.Errorf("job: Simulate needs a cluster and a cost model")
	}
	if pol == nil {
		return Result{}, fmt.Errorf("job: Simulate needs a policy")
	}
	if err := opts.Retry.Validate(); err != nil {
		return Result{}, err
	}
	if err := opts.Admission.Validate(); err != nil {
		return Result{}, err
	}
	health, err := opts.Health.Instantiate(cl.Size())
	if err != nil {
		return Result{}, err
	}
	member, err := opts.Membership.Instantiate(cl.Size())
	if err != nil {
		return Result{}, err
	}
	s, err := newSim(ctx, cl, model, jobs, pol, opts, health)
	if err != nil {
		return Result{}, err
	}
	s.shrinks = len(health) > 0 || len(member) > 0 || s.as != nil

	// Health events are scheduled FIRST: at equal virtual instants the
	// kernel fires them before arrivals (and before any timer scheduled
	// mid-run), so placement never hands out a node in the same instant
	// it fails — the invariant the crash fixed point (settle) builds on.
	for _, ev := range health {
		s.at(ev.DownMS, func() error { return s.down(ev.Node) })
		if ev.UpMS > 0 {
			s.at(ev.UpMS, func() error { return s.up(ev.Node) })
		}
	}
	// Planned membership changes ride the same clock, after failures at
	// equal instants: a node failing and draining in the same moment is
	// a failure first.
	for _, ev := range member {
		switch ev.Op {
		case cluster.OpDrain:
			s.at(ev.AtMS, func() error { return s.drain(ev.Node, true) })
		case cluster.OpJoin:
			s.at(ev.AtMS, func() error { return s.join(ev.Node, true) })
		}
	}
	for i := range s.jobs {
		j := &s.jobs[i]
		s.at(j.ArrivalMS, func() error { return s.arrive(j) })
	}
	if err := s.k.Run(); err != nil {
		return Result{}, err
	}
	if s.err != nil {
		return Result{}, s.err
	}
	return s.result()
}

// newSim checks the stream against the cluster and builds the state
// machine: the allocator with the outage forecast, each node's down
// instants, and the autoscaler with its initial drained pool.
func newSim(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, jobs []Job, pol Policy, opts Options, health []cluster.NodeEvent) (*sim, error) {
	ests := make(map[string]workload.Workload, 4)
	for _, j := range jobs {
		w, ok := workload.Lookup(j.Workload)
		if !ok {
			return nil, fmt.Errorf("job: job %d: unknown workload %q", j.ID, j.Workload)
		}
		ests[j.Workload] = w
		if j.Width > cl.Size() {
			return nil, fmt.Errorf("job: job %d (tenant %q) wants %d nodes, cluster has %d",
				j.ID, j.Tenant, j.Width, cl.Size())
		}
	}
	alloc, err := cluster.NewAllocator(cl, opts.Alloc)
	if err != nil {
		return nil, err
	}
	// Hand placement the outage forecast (pack steers around it).
	alloc.SetOutlook(health)
	s := &sim{
		ctx: ctx, model: model, opts: opts, pol: pol, jobs: slices.Clone(jobs),
		k: des.NewKernel(), alloc: alloc, memo: opts.Memo, ests: ests,
		downsAt: make([][]float64, cl.Size()), queuedBy: map[string]int{},
		results: make([]JobResult, len(jobs)), states: make([]jobState, len(jobs)),
	}
	if s.memo == nil {
		s.memo = new(Memo)
	}
	s.est = func(j *Job) float64 { return s.ests[j.Workload].WorkAt(j.N) }
	// Instantiate sorts by DownMS, so each node's instants ascend.
	for _, ev := range health {
		s.downsAt[ev.Node] = append(s.downsAt[ev.Node], ev.DownMS)
	}
	if !opts.Autoscale.IsZero() {
		if s.as, err = newAutoscaler(opts.Autoscale, cl.Size(), jobs, model); err != nil {
			return nil, err
		}
		// Nodes above the starting size begin drained, joinable
		// lowest-first as the controller grows.
		for node := s.as.active; node < cl.Size(); node++ {
			if err := alloc.NodeDrain(node, 0); err != nil {
				return nil, err
			}
			s.as.pool = append(s.as.pool, node)
		}
	}
	return s, nil
}

// at schedules handler h at virtual instant t. It is the one error
// gate: the first handler error is kept and every event after it is
// dropped, so Simulate returns the error where the run first failed.
func (s *sim) at(t float64, h func() error) {
	s.k.ScheduleAt(t, func() {
		if s.err == nil {
			s.err = h()
		}
	})
}

// arrive submits j. A tenant at its queue cap has the job rejected;
// otherwise it queues as a retry does.
func (s *sim) arrive(j *Job) error {
	if s.opts.Admission.MaxQueue > 0 && s.queuedBy[j.Tenant] >= s.opts.Admission.MaxQueue {
		s.record(j, JobResult{Status: StatusRejected})
		return nil
	}
	return s.retry(j)
}

// retry is a failed job's wake-up after its backoff: the job re-enters
// the queue, bypassing the cap (it was admitted once), and an admission
// pass runs.
func (s *sim) retry(j *Job) error {
	s.enqueue(j)
	return s.admit()
}

// shed drops j at its admission deadline, unless j already left the
// queue entry the deadline was armed for (gen). Shedding the head can
// unblock fcfs, so an admission pass follows.
func (s *sim) shed(j *Job, gen int) error {
	if s.states[j.ID].gen != gen {
		return nil
	}
	s.dequeue(slices.Index(s.queue, j))
	s.record(j, JobResult{Status: StatusShed, WaitMS: s.k.Now() - j.ArrivalMS})
	return s.admit()
}

// release ends lease and runs an admission pass on the freed nodes. A
// lease fully consumed by node failures retired itself.
func (s *sim) release(lease *cluster.Lease) error {
	if s.alloc.Holds(lease) {
		if err := s.alloc.Release(lease, s.k.Now()); err != nil {
			return err
		}
	}
	s.lastReleaseMS = max(s.lastReleaseMS, s.k.Now())
	return s.admit()
}

// down fails node: a lease on it heals in place to the survivors, whose
// rollback settle already planned. Capacity only shrank, so no
// admission pass follows.
func (s *sim) down(node int) error {
	return s.alloc.NodeDown(node, s.k.Now())
}

// up returns a failed node to service and runs an admission pass.
func (s *sim) up(node int) error {
	if err := s.alloc.NodeUp(node, s.k.Now()); err != nil {
		return err
	}
	return s.admit()
}

// drain gracefully takes node out of placement for a plan event (plan)
// or an autoscaler shrink: a lease the node serves runs to its own
// release. A plan drain of a node in the autoscaler's pool takes the
// node over: it leaves the pool and stays drained until the plan's own
// join. Capacity only shrank, so no admission pass follows.
func (s *sim) drain(node int, plan bool) error {
	if plan && s.as != nil {
		if i := slices.Index(s.as.pool, node); i >= 0 {
			s.as.pool = slices.Delete(s.as.pool, i, i+1)
			s.reconfigs++
			return nil
		}
	}
	if err := s.alloc.NodeDrain(node, s.k.Now()); err != nil {
		return err
	}
	s.reconfigs++
	return nil
}

// join returns a drained node to placement for a plan event (plan) or
// an autoscaler grow. A plan join ends in an admission pass; a grow
// already runs inside one.
func (s *sim) join(node int, plan bool) error {
	if err := s.alloc.NodeJoin(node, s.k.Now()); err != nil {
		return err
	}
	s.reconfigs++
	if !plan {
		return nil
	}
	return s.admit()
}

// enqueue appends j to the queue and, under a max wait, arms the shed
// deadline of this queue entry.
func (s *sim) enqueue(j *Job) {
	st := &s.states[j.ID]
	st.gen++
	s.queue = append(s.queue, j)
	s.queuedBy[j.Tenant]++
	if s.opts.Admission.MaxWaitMS > 0 {
		gen := st.gen
		s.at(s.k.Now()+s.opts.Admission.MaxWaitMS, func() error { return s.shed(j, gen) })
	}
}

// dequeue removes and returns the job at queue index idx.
func (s *sim) dequeue(idx int) *Job {
	j := s.queue[idx]
	s.queue = slices.Delete(s.queue, idx, idx+1)
	s.states[j.ID].gen++
	s.queuedBy[j.Tenant]--
	return j
}

// admit is one admission pass: first the autoscaler windows closed by
// now (scale), so grows take effect before placement and shrinks never
// preempt, then the policy's picks until it admits nothing more.
func (s *sim) admit() error {
	if err := s.scale(); err != nil {
		return err
	}
	for len(s.queue) > 0 {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		idx, ranks, ok := s.pol.Pick(s.queue, s.alloc, s.est, s.k.Now())
		if !ok {
			return nil
		}
		if err := s.start(s.dequeue(idx), ranks); err != nil {
			return err
		}
	}
	return nil
}

// start leases ranks to j, fixes the run's fate under the outage
// schedule (settle) and records it: a completion next to its dedicated
// baseline, or a failure that requeues while the retry budget lasts.
// The retry wake-up is scheduled before the lease release, so at equal
// instants the job is back in the queue for the release's admission.
func (s *sim) start(j *Job, ranks []int) error {
	lease, err := s.alloc.Acquire(j.Tenant, ranks, s.k.Now())
	if err != nil {
		return err
	}
	// Node failures later heal the lease in place; keep the granted
	// placement for the result record.
	placed := append([]int(nil), lease.Ranks...)
	speeds := speedKey(lease.Sub)
	ready := lease.ReadyMS
	run, err := s.settle(j, lease, placed, speeds)
	if err != nil {
		return err
	}
	st := &s.states[j.ID]
	st.rollbacks += run.rollbacks
	if !run.finished {
		failAt := ready + run.failMS
		if st.retries < s.opts.Retry.MaxRetries {
			st.retries++
			s.at(failAt+faults.Backoff(s.opts.Retry.BackoffMS, st.retries-1), func() error { return s.retry(j) })
		} else {
			s.record(j, JobResult{
				Ranks: placed, StartMS: ready, FinishMS: failAt,
				WaitMS: ready - j.ArrivalMS, RunMS: run.failMS, Status: StatusFailed,
			})
		}
		s.at(failAt+s.opts.Alloc.ReleaseMS, func() error { return s.release(lease) })
		return nil
	}

	finish := ready + run.timeMS
	es, err := core.SpeedEfficiency(run.work, finish-j.ArrivalMS, lease.Sub.MarkedSpeed())
	if err != nil {
		return err
	}
	// Dedicated baseline: same placement, zero wait, zero charges and no
	// faults — the undisturbed run time alone over the same subset's C.
	base, err := s.run(j, lease.Sub, speeds, placed, nil)
	if err != nil {
		return err
	}
	ded, err := core.SpeedEfficiency(base.work, base.timeMS, lease.Sub.MarkedSpeed())
	if err != nil {
		return err
	}
	s.record(j, JobResult{
		Ranks: placed, StartMS: ready, FinishMS: finish,
		WaitMS: ready - j.ArrivalMS, RunMS: run.timeMS,
		Work: run.work, Es: es, EsDedicated: ded, Retention: es / ded,
		Status: StatusDone,
	})
	if s.as != nil {
		s.as.observe(finish, es, j.N)
	}
	s.at(finish+s.opts.Alloc.ReleaseMS, func() error { return s.release(lease) })
	return nil
}

// settle is the crash fixed point of j's run on a fresh lease: fold
// every scheduled down that strikes the placement before the (re)computed
// end of the run into its crash plan, and rerun. Each round kills one
// more position, so it ends within the lease width. Health events fire
// before arrivals, so a node down at exactly now was never handed out.
func (s *sim) settle(j *Job, lease *cluster.Lease, placed []int, speeds string) (innerRun, error) {
	now, ready := s.k.Now(), lease.ReadyMS
	var crashes []faults.Crash
	deadPos := make(map[int]bool, len(placed))
	for {
		run, err := s.run(j, lease.Sub, speeds, placed, crashes)
		if err != nil {
			return innerRun{}, err
		}
		endAbs := ready + run.timeMS
		if !run.finished {
			endAbs = ready + run.failMS
		}
		pos, hitAt := -1, 0.0
		for i, node := range placed {
			downs := s.downsAt[node]
			next := sort.SearchFloat64s(downs, now) // first down at or after now
			if deadPos[i] || next == len(downs) || downs[next] >= endAbs {
				continue
			}
			if t := downs[next]; pos < 0 || t < hitAt {
				pos, hitAt = i, t
			}
		}
		if pos < 0 {
			return run, nil
		}
		deadPos[pos] = true
		rel := hitAt - ready
		if rel < 0 {
			rel = 0 // struck during the acquire charge: dead at first op
		}
		crashes = append(crashes, faults.Crash{Rank: pos, AtMS: rel})
	}
}

// run executes j on the leased subset (speeds is its speedKey; ranks,
// the leased node IDs, only label errors) under the crash plan, at most
// once per memo.
func (s *sim) run(j *Job, sub *cluster.Cluster, speeds string, ranks []int, crashes []faults.Crash) (innerRun, error) {
	key := memoKey{workload: j.Workload, n: j.N, speeds: speeds}
	if len(crashes) > 0 {
		key.crashes = crashKey(crashes)
		key.ckptSteps = s.opts.Retry.CkptSteps
	}
	if r, ok := s.memo.runs[key]; ok {
		return r, nil
	}
	r, err := runInner(s.ctx, s.ests[j.Workload], sub, s.model, s.opts, j.N, crashes)
	if err != nil {
		return innerRun{}, fmt.Errorf("job: job %d (%s n=%d) on %v: %w", j.ID, j.Workload, j.N, ranks, err)
	}
	s.memo.put(key, r)
	return r, nil
}

// scale evaluates every autoscaler window closed by now — lazily, at
// the head of each admission pass, never as kernel events — through the
// plan events' join and drain handlers: a grow joins the pool's lowest
// node, a shrink drains the highest-index node not already draining.
func (s *sim) scale() error {
	as := s.as
	if as == nil {
		return nil
	}
	for float64(as.nextWin)*as.spec.WindowMS <= s.k.Now() {
		sample, dir := as.decide(as.nextWin)
		as.nextWin++
		switch {
		case dir > 0 && len(as.pool) > 0:
			if err := s.join(as.pool[0], false); err != nil {
				return err
			}
			as.pool = as.pool[1:]
			as.active++
		case dir < 0:
			node := s.alloc.Cluster().Size() - 1
			for node >= 0 && s.alloc.IsDraining(node) {
				node--
			}
			if node < 0 {
				sample.Decision = "hold"
				break
			}
			if err := s.drain(node, false); err != nil {
				return err
			}
			as.pool = append(as.pool, node)
			sort.Ints(as.pool)
			as.active--
		case dir > 0:
			sample.Decision = "hold" // nothing left to join
		}
		as.samples = append(as.samples, sample)
	}
	return nil
}

// record fixes j's terminal fate, stamped with its retry and rollback
// counts.
func (s *sim) record(j *Job, r JobResult) {
	st := s.states[j.ID]
	r.Job, r.Retries, r.Recoveries = *j, st.retries, st.rollbacks
	s.results[j.ID] = r
}

// result tallies the finished simulation. A job still without a fate
// starved in the queue, which only shrinking capacity explains: without
// it, a hole is a policy bug, not a simulation outcome.
func (s *sim) result() (Result, error) {
	res := Result{
		Policy:      s.pol.Name(),
		MakespanMS:  s.lastReleaseMS,
		Utilization: s.alloc.Utilization(s.lastReleaseMS),
		Reconfigs:   s.reconfigs,
	}
	if s.as != nil {
		res.Scale = s.as.samples
	}
	for i := range s.results {
		if s.results[i].Status == "" {
			if !s.shrinks {
				return Result{}, fmt.Errorf("job: job %d never admitted (policy %s)", i, s.pol.Name())
			}
			s.record(&s.jobs[i], JobResult{Status: StatusStarved})
		}
		res.add(s.results[i])
	}
	res.Jobs = s.results
	return res, nil
}

// TenantSummary aggregates one tenant's jobs under one policy. The
// means are over COMPLETED jobs only; the status counts account for
// every submitted job.
type TenantSummary struct {
	Tenant        string
	Jobs          int
	MeanWaitMS    float64
	MeanRespMS    float64
	MeanEs        float64
	MeanDedicated float64
	Retention     float64 // MeanEs / MeanDedicated
	tally
}

// ByTenant folds a result into per-tenant summaries, tenant-name order.
func (r Result) ByTenant() []TenantSummary {
	idx := map[string]int{}
	var out []TenantSummary
	for _, jr := range r.Jobs {
		i, ok := idx[jr.Tenant]
		if !ok {
			i = len(out)
			idx[jr.Tenant] = i
			out = append(out, TenantSummary{Tenant: jr.Tenant})
		}
		s := &out[i]
		s.Jobs++
		s.add(jr)
		if jr.Status != StatusDone {
			continue
		}
		s.MeanWaitMS += jr.WaitMS
		s.MeanRespMS += jr.FinishMS - jr.ArrivalMS
		s.MeanEs += jr.Es
		s.MeanDedicated += jr.EsDedicated
	}
	for i := range out {
		if out[i].Completed == 0 {
			continue
		}
		n := float64(out[i].Completed)
		out[i].MeanWaitMS /= n
		out[i].MeanRespMS /= n
		out[i].MeanEs /= n
		out[i].MeanDedicated /= n
		out[i].Retention = out[i].MeanEs / out[i].MeanDedicated
	}
	slices.SortFunc(out, func(a, b TenantSummary) int { return cmp.Compare(a.Tenant, b.Tenant) })
	return out
}
