package job

import (
	"context"
	"errors"
	"fmt"
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
	// Per-status job counts; Completed + Rejected + Shed + Failed +
	// Starved always equals len(Jobs). Retried counts jobs that
	// re-entered the queue at least once, Recovered the completed jobs
	// that survived at least one rollback.
	Completed int
	Rejected  int
	Shed      int
	Failed    int
	Starved   int
	Retried   int
	Recovered int
	// Reconfigs counts applied membership changes: plan drains and
	// joins plus autoscaler moves.
	Reconfigs int
	// Scale is the autoscaler's window-by-window record; nil when the
	// autoscaler is disabled.
	Scale []ScaleSample
}

// innerRun memoizes one workload execution on one placement under one
// crash plan.
type innerRun struct {
	// finished is false when the run lost its survivor set or its
	// recovery attempt budget; then failMS (run start to abandonment)
	// is set instead of timeMS.
	finished  bool
	timeMS    float64
	failMS    float64
	work      float64
	rollbacks int
}

// jobState is the scheduler's mutable per-job bookkeeping.
type jobState struct {
	// gen bumps on every queue entry and exit so a pending shed timer
	// can tell whether the job is still in the queue entry it targeted.
	gen       int
	retries   int
	rollbacks int
}

// Simulate runs the job stream on one shared cluster under the given
// policy, advancing arrivals, leases, node failures and completions on
// a single DES clock. Jobs execute as real virtual-time runs (symbolic
// mode: full timing and traffic, no host arithmetic) on their leased
// subset, so a lease on nodes {7,3} genuinely runs rank 0 on node 7.
//
// With a node-fault schedule (opts.Health), a node crashing mid-lease
// shrinks the lease to the survivors and the run rolls back to its last
// coordinated checkpoint and replays on them (mpi.RunReconfigurable with
// dist.Pinned redistribution), all charged in virtual time. A job whose
// lease loses every node re-enters the queue under the bounded
// exponential-backoff budget in opts.Retry; admission control
// (opts.Admission) rejects and sheds deterministically. With the zero
// Health/Retry/Admission the simulation is identical — event for event,
// bit for bit — to the undisturbed stream.
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
	// With shrinking capacity — failures, drains or an autoscaler — a
	// queued job may legitimately never fit again.
	faulted := len(health) > 0 || len(member) > 0 || !opts.Autoscale.IsZero()
	ests := make(map[string]workload.Workload, 4)
	for _, j := range jobs {
		w, ok := workload.Lookup(j.Workload)
		if !ok {
			return Result{}, fmt.Errorf("job: job %d: unknown workload %q", j.ID, j.Workload)
		}
		ests[j.Workload] = w
		if j.Width > cl.Size() {
			return Result{}, fmt.Errorf("job: job %d (tenant %q) wants %d nodes, cluster has %d",
				j.ID, j.Tenant, j.Width, cl.Size())
		}
	}
	alloc, err := cluster.NewAllocator(cl, opts.Alloc)
	if err != nil {
		return Result{}, err
	}
	// Hand placement the outage forecast (pack steers around it).
	alloc.SetOutlook(health)
	var as *autoscaler
	if !opts.Autoscale.IsZero() {
		as, err = newAutoscaler(opts.Autoscale, cl.Size(), jobs, model)
		if err != nil {
			return Result{}, err
		}
		// Nodes above the starting size begin drained, joinable
		// lowest-first as the controller grows.
		for node := as.active; node < cl.Size(); node++ {
			if err := alloc.NodeDrain(node, 0); err != nil {
				return Result{}, err
			}
			as.pool = append(as.pool, node)
		}
	}
	est := func(j *Job) float64 { return ests[j.Workload].WorkAt(j.N) }

	// Per-node down instants, ascending (Instantiate sorts by DownMS).
	downsAt := make([][]float64, cl.Size())
	for _, ev := range health {
		downsAt[ev.Node] = append(downsAt[ev.Node], ev.DownMS)
	}
	nextDown := func(node int, fromMS float64) (float64, bool) {
		for _, t := range downsAt[node] {
			if t >= fromMS {
				return t, true
			}
		}
		return 0, false
	}

	memo := map[string]innerRun{}
	runOn := func(j *Job, sub *cluster.Cluster, ranks []int, crashes []faults.Crash) (innerRun, error) {
		key := fmt.Sprintf("%s/%d/%v/%v", j.Workload, j.N, ranks, crashes)
		if r, ok := memo[key]; ok {
			return r, nil
		}
		spec := workload.Spec{N: j.N, Seed: opts.Seed, Symbolic: true}
		var r innerRun
		if len(crashes) == 0 {
			out, err := ests[j.Workload].Run(ctx, sub, model, opts.MPI, spec)
			if err != nil {
				return innerRun{}, fmt.Errorf("job: job %d (%s n=%d) on %v: %w", j.ID, j.Workload, j.N, ranks, err)
			}
			r = innerRun{finished: true, timeMS: out.Stats.TimeMS, work: out.Work}
		} else {
			// Survivor replay redistributes the dead ranks' shares by the
			// leased subset's nominal speeds: dist.Pinned, subset to the
			// survivors by the recovery supervisor.
			spec.PinnedSpeeds = sub.Speeds()
			mopts := opts.MPI
			mopts.Faults = faults.Plan{Crashes: crashes}.Injector()
			rcfg := workload.RecoveryConfig{IntervalSteps: opts.Retry.CkptSteps}
			out, rec, err := ests[j.Workload].RunRecovered(ctx, sub, model, mopts, spec, rcfg)
			switch {
			case err == nil:
				r = innerRun{finished: true, timeMS: rec.TimeMS, work: out.Work, rollbacks: rec.Attempts - 1}
			case errors.Is(err, mpi.ErrRecoveryFailed):
				r = innerRun{finished: false, failMS: rec.FailedAtMS(), rollbacks: rec.Attempts - 1}
			default:
				return innerRun{}, fmt.Errorf("job: job %d (%s n=%d) on %v: %w", j.ID, j.Workload, j.N, ranks, err)
			}
		}
		memo[key] = r
		return r, nil
	}

	k := des.NewKernel()
	results := make([]JobResult, len(jobs))
	states := make([]jobState, len(jobs))
	queuedBy := map[string]int{}
	var queue []*Job
	var lastReleaseMS float64
	var reconfigs int
	var simErr error
	fail := func(err error) {
		if simErr == nil {
			simErr = err
		}
	}

	// tick evaluates every autoscaler window that has closed by now.
	// It runs at the head of each admission pass, so grows take effect
	// before placement and shrinks (graceful drains) never preempt: the
	// controller only moves nodes between the free set and its own
	// drained pool.
	tick := func() {
		if as == nil || simErr != nil {
			return
		}
		for float64(as.nextWin)*as.spec.WindowMS <= k.Now() {
			sample, dir := as.decide(as.nextWin)
			as.nextWin++
			switch {
			case dir > 0 && len(as.pool) > 0:
				node := as.pool[0]
				if err := alloc.NodeJoin(node, k.Now()); err != nil {
					fail(err)
					return
				}
				as.pool = as.pool[1:]
				as.active++
				reconfigs++
			case dir < 0:
				node := -1
				for n := cl.Size() - 1; n >= 0; n-- {
					if !alloc.IsDraining(n) {
						node = n
						break
					}
				}
				if node < 0 {
					sample.Decision = "hold"
					break
				}
				if err := alloc.NodeDrain(node, k.Now()); err != nil {
					fail(err)
					return
				}
				as.pool = append(as.pool, node)
				sort.Ints(as.pool)
				as.active--
				reconfigs++
			case dir > 0:
				sample.Decision = "hold" // nothing left to join
			}
			as.samples = append(as.samples, sample)
		}
	}

	var admit func()
	enqueue := func(j *Job, atMS float64) {
		st := &states[j.ID]
		st.gen++
		gen := st.gen
		queue = append(queue, j)
		queuedBy[j.Tenant]++
		if opts.Admission.MaxWaitMS > 0 {
			k.ScheduleAt(atMS+opts.Admission.MaxWaitMS, func() {
				if simErr != nil || states[j.ID].gen != gen {
					return // the job left the queue before the deadline
				}
				for qi, q := range queue {
					if q == j {
						queue = append(queue[:qi], queue[qi+1:]...)
						break
					}
				}
				st.gen++
				queuedBy[j.Tenant]--
				results[j.ID] = JobResult{
					Job: *j, Status: StatusShed,
					WaitMS:  k.Now() - j.ArrivalMS,
					Retries: st.retries, Recoveries: st.rollbacks,
				}
				// Shedding the head can unblock fcfs.
				admit()
			})
		}
	}

	admit = func() {
		tick()
		for simErr == nil && len(queue) > 0 {
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			idx, ranks, ok := pol.Pick(queue, alloc, est, k.Now())
			if !ok {
				return
			}
			j := queue[idx]
			queue = append(queue[:idx], queue[idx+1:]...)
			st := &states[j.ID]
			st.gen++
			queuedBy[j.Tenant]--
			now := k.Now()
			lease, err := alloc.Acquire(j.Tenant, ranks, now)
			if err != nil {
				fail(err)
				return
			}
			// Node failures later heal the lease in place; keep the
			// granted placement for the result record and the memo key.
			placed := append([]int(nil), lease.Ranks...)
			ready := lease.ReadyMS

			// Crash fixed point: fold every scheduled node-down event that
			// strikes the placement before the (re)computed end of the run
			// into the run's crash plan. Each iteration kills at most one
			// more position, so it terminates within the lease width. The
			// plan is consistent with the allocator because health events
			// are scheduled before arrivals: a node down at exactly now was
			// never handed out.
			var crashes []faults.Crash
			deadPos := make(map[int]bool, len(placed))
			var run innerRun
			for {
				run, err = runOn(j, lease.Sub, placed, crashes)
				if err != nil {
					fail(err)
					return
				}
				endAbs := ready + run.timeMS
				if !run.finished {
					endAbs = ready + run.failMS
				}
				pos, hitAt := -1, 0.0
				for i, node := range placed {
					if deadPos[i] {
						continue
					}
					t, ok := nextDown(node, now)
					if !ok || t >= endAbs {
						continue
					}
					if pos < 0 || t < hitAt {
						pos, hitAt = i, t
					}
				}
				if pos < 0 {
					break
				}
				deadPos[pos] = true
				rel := hitAt - ready
				if rel < 0 {
					rel = 0 // struck during the acquire charge: dead at first op
				}
				crashes = append(crashes, faults.Crash{Rank: pos, AtMS: rel})
			}

			st.rollbacks += run.rollbacks
			release := func(atMS float64) {
				k.ScheduleAt(atMS, func() {
					if simErr != nil {
						return
					}
					// A lease fully consumed by node failures retired itself.
					if alloc.Holds(lease) {
						if err := alloc.Release(lease, k.Now()); err != nil {
							fail(err)
							return
						}
					}
					if k.Now() > lastReleaseMS {
						lastReleaseMS = k.Now()
					}
					admit()
				})
			}

			if !run.finished {
				failAt := ready + run.failMS
				if st.retries < opts.Retry.MaxRetries {
					st.retries++
					wake := failAt + faults.Backoff(opts.Retry.BackoffMS, st.retries-1)
					k.ScheduleAt(wake, func() {
						if simErr != nil {
							return
						}
						enqueue(j, k.Now())
						admit()
					})
				} else {
					results[j.ID] = JobResult{
						Job: *j, Ranks: placed,
						StartMS: ready, FinishMS: failAt,
						WaitMS: ready - j.ArrivalMS, RunMS: run.failMS,
						Status: StatusFailed, Retries: st.retries, Recoveries: st.rollbacks,
					}
				}
				release(failAt + opts.Alloc.ReleaseMS)
				continue
			}

			finish := ready + run.timeMS
			es, err := core.SpeedEfficiency(run.work, finish-j.ArrivalMS, lease.Sub.MarkedSpeed())
			if err != nil {
				fail(err)
				return
			}
			// Dedicated baseline: same placement, zero wait, zero charges
			// and no faults — the undisturbed run time alone over the same
			// subset's C.
			base, err := runOn(j, lease.Sub, placed, nil)
			if err != nil {
				fail(err)
				return
			}
			ded, err := core.SpeedEfficiency(base.work, base.timeMS, lease.Sub.MarkedSpeed())
			if err != nil {
				fail(err)
				return
			}
			results[j.ID] = JobResult{
				Job: *j, Ranks: placed,
				StartMS: ready, FinishMS: finish,
				WaitMS: ready - j.ArrivalMS, RunMS: run.timeMS,
				Work: run.work, Es: es, EsDedicated: ded, Retention: es / ded,
				Status: StatusDone, Retries: st.retries, Recoveries: st.rollbacks,
			}
			if as != nil {
				as.observe(finish, es, j.N)
			}
			release(finish + opts.Alloc.ReleaseMS)
		}
	}

	// Health events are scheduled FIRST: at equal virtual instants the
	// kernel fires them before arrivals (and before any timer scheduled
	// mid-run), so placement never hands out a node in the same instant
	// it fails — the invariant the crash fixed point above builds on.
	for _, ev := range health {
		ev := ev
		k.ScheduleAt(ev.DownMS, func() {
			if simErr != nil {
				return
			}
			if _, err := alloc.NodeDown(ev.Node, k.Now()); err != nil {
				fail(err)
			}
		})
		if ev.UpMS > 0 {
			k.ScheduleAt(ev.UpMS, func() {
				if simErr != nil {
					return
				}
				if err := alloc.NodeUp(ev.Node, k.Now()); err != nil {
					fail(err)
					return
				}
				admit()
			})
		}
	}
	// Planned membership changes ride the same clock, after failures at
	// equal instants: a node failing and draining in the same moment is
	// a failure first. Drains are graceful — no lease is touched — so
	// only joins can unblock admission.
	for _, ev := range member {
		ev := ev
		switch ev.Op {
		case cluster.OpDrain:
			k.ScheduleAt(ev.AtMS, func() {
				if simErr != nil {
					return
				}
				if err := alloc.NodeDrain(ev.Node, k.Now()); err != nil {
					fail(err)
					return
				}
				reconfigs++
			})
		case cluster.OpJoin:
			k.ScheduleAt(ev.AtMS, func() {
				if simErr != nil {
					return
				}
				if err := alloc.NodeJoin(ev.Node, k.Now()); err != nil {
					fail(err)
					return
				}
				reconfigs++
				admit()
			})
		}
	}
	for i := range jobs {
		j := jobs[i]
		k.ScheduleAt(j.ArrivalMS, func() {
			if simErr != nil {
				return
			}
			if opts.Admission.MaxQueue > 0 && queuedBy[j.Tenant] >= opts.Admission.MaxQueue {
				results[j.ID] = JobResult{Job: j, Status: StatusRejected, WaitMS: 0}
				return
			}
			enqueue(&j, k.Now())
			admit()
		})
	}
	if err := k.Run(); err != nil {
		return Result{}, err
	}
	if simErr != nil {
		return Result{}, simErr
	}
	res := Result{
		Policy:      pol.Name(),
		MakespanMS:  lastReleaseMS,
		Utilization: alloc.Utilization(lastReleaseMS),
		Reconfigs:   reconfigs,
	}
	if as != nil {
		res.Scale = as.samples
	}
	for i := range results {
		r := &results[i]
		if r.Status == "" {
			if !faulted {
				// Without faults every job must eventually be admitted; a
				// hole here is a policy bug, not a simulation outcome.
				return Result{}, fmt.Errorf("job: job %d never admitted (policy %s)", i, pol.Name())
			}
			*r = JobResult{
				Job: jobs[i], Status: StatusStarved,
				Retries: states[i].retries, Recoveries: states[i].rollbacks,
			}
		}
		switch r.Status {
		case StatusDone:
			res.Completed++
			if r.Recoveries > 0 {
				res.Recovered++
			}
		case StatusRejected:
			res.Rejected++
		case StatusShed:
			res.Shed++
		case StatusFailed:
			res.Failed++
		case StatusStarved:
			res.Starved++
		}
		if r.Retries > 0 {
			res.Retried++
		}
	}
	res.Jobs = results
	return res, nil
}

// TenantSummary aggregates one tenant's jobs under one policy. The
// means are over COMPLETED jobs only; the counters account for every
// submitted job.
type TenantSummary struct {
	Tenant        string
	Jobs          int
	MeanWaitMS    float64
	MeanRespMS    float64
	MeanEs        float64
	MeanDedicated float64
	Retention     float64 // MeanEs / MeanDedicated
	Completed     int
	Rejected      int
	Shed          int
	Failed        int
	Starved       int
	Retried       int
	Recovered     int
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
		if jr.Retries > 0 {
			s.Retried++
		}
		switch jr.Status {
		case StatusRejected:
			s.Rejected++
			continue
		case StatusShed:
			s.Shed++
			continue
		case StatusFailed:
			s.Failed++
			continue
		case StatusStarved:
			s.Starved++
			continue
		}
		s.Completed++
		if jr.Recoveries > 0 {
			s.Recovered++
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
	sortTenantSummaries(out)
	return out
}

func sortTenantSummaries(s []TenantSummary) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Tenant < s[j-1].Tenant; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
