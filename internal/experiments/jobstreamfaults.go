package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
)

// JobStreamFaultsHealth is the canonical outage schedule of the
// jobstream-faults experiment on the shared 16-node cluster: two early
// transient outages timed to strike leases of the default stream
// mid-run (forcing checkpoint rollback and lease healing), a low-index
// triple that wipes a whole narrow lease (forcing a requeue under
// backoff), and a wide mid-stream crunch that shrinks the machine to
// two healthy nodes so admission control visibly rejects and sheds.
// All instants are virtual-time, so the schedule is engine-independent.
func JobStreamFaultsHealth() cluster.HealthSpec {
	return cluster.HealthSpec{Events: []cluster.NodeEvent{
		{Node: 1, DownMS: 150, UpMS: 700},
		{Node: 8, DownMS: 170, UpMS: 760},
		{Node: 0, DownMS: 560, UpMS: 1250},
		{Node: 2, DownMS: 565, UpMS: 1260},
		{Node: 3, DownMS: 570, UpMS: 1270},
		{Node: 4, DownMS: 750, UpMS: 1280},
		{Node: 5, DownMS: 751, UpMS: 1290},
		{Node: 6, DownMS: 752, UpMS: 1300},
		{Node: 7, DownMS: 753, UpMS: 1310},
		{Node: 9, DownMS: 754, UpMS: 1320},
		{Node: 10, DownMS: 755, UpMS: 1330},
		{Node: 11, DownMS: 756, UpMS: 1340},
		{Node: 12, DownMS: 757, UpMS: 1350},
		{Node: 13, DownMS: 758, UpMS: 1360},
		{Node: 14, DownMS: 759, UpMS: 1370},
		{Node: 15, DownMS: 760, UpMS: 1380},
	}}
}

// JobStreamFaultsAdmission is the canonical admission policy of the
// jobstream-faults experiment: tight enough that the capacity crunch
// during the wide outage turns into deterministic rejections and sheds
// instead of unbounded queueing.
func JobStreamFaultsAdmission() job.AdmissionSpec {
	return job.AdmissionSpec{MaxQueue: 1, MaxWaitMS: 400}
}

// JobStreamFaults runs the default three-tenant stream twice per
// policy — once undisturbed, once under the canonical outage schedule
// with bounded retries and admission control — and reports what each
// tenant's speed-efficiency retained of the undisturbed stream, plus
// the full rejected/shed/retried/recovered/failed breakdown.
func (s *Suite) JobStreamFaults(ctx context.Context) ([]Renderable, error) {
	return s.JobStreamFaultsWith(ctx, job.DefaultStream(), JobStreamP, job.Policies(), job.Options{
		Health:    JobStreamFaultsHealth(),
		Retry:     job.DefaultRetry(),
		Admission: JobStreamFaultsAdmission(),
	})
}

// JobStreamFaultsWith is the parameterized core shared with the
// jobstream RunSpec kind when a fault section is set: any stream, shared
// width, policy subset and scenario. Each policy's stream is simulated
// under the whole scenario and undisturbed — the same scenario without
// its Health, Retry and Admission, so a membership plan or autoscaler
// stays in both runs; the retention columns compare the two.
func (s *Suite) JobStreamFaultsWith(ctx context.Context, stream job.StreamSpec, sharedP int, policies []string, scenario job.Options) ([]Renderable, error) {
	cl, jobs, faulted, err := s.streamSetup(stream, sharedP, scenario)
	if err != nil {
		return nil, err
	}
	plain := faulted
	plain.Health, plain.Retry, plain.Admission = cluster.HealthSpec{}, job.RetrySpec{}, job.AdmissionSpec{}

	tenants := &Table{
		Title: fmt.Sprintf("Job-stream faults: per-tenant E_s retention vs the undisturbed stream (%d shared nodes)", sharedP),
		Headers: []string{
			"Policy", "Tenant", "Jobs", "Done", "Rej", "Shed", "Fail", "Starv",
			"E_s faulted", "E_s undisturbed", "Retention",
		},
	}
	summary := &Table{
		Title: "Job-stream faults: policy comparison under the outage schedule",
		Headers: []string{
			"Policy", "Makespan (ms)", "Undisturbed (ms)", "Utilization",
			"Retried", "Recovered", "Failed", "Min tenant retention",
		},
	}
	for _, name := range policies {
		pol, err := job.GetPolicy(name)
		if err != nil {
			return nil, err
		}
		base, err := job.Simulate(ctx, cl, s.model, jobs, pol, plain)
		if err != nil {
			return nil, fmt.Errorf("experiments: jobstream-faults %s (undisturbed): %w", name, err)
		}
		res, err := job.Simulate(ctx, cl, s.model, jobs, pol, faulted)
		if err != nil {
			return nil, fmt.Errorf("experiments: jobstream-faults %s: %w", name, err)
		}
		baseBy := base.ByTenant()
		baseEs := make(map[string]float64, len(baseBy))
		for _, ts := range baseBy {
			baseEs[ts.Tenant] = ts.MeanEs
		}
		minRet, first := 0.0, true
		for _, ts := range res.ByTenant() {
			ret := 0.0
			if baseEs[ts.Tenant] > 0 {
				ret = ts.MeanEs / baseEs[ts.Tenant]
			}
			if first || ret < minRet {
				minRet, first = ret, false
			}
			tenants.AddRow(
				name, ts.Tenant,
				fmt.Sprintf("%d", ts.Jobs),
				fmt.Sprintf("%d", ts.Completed),
				fmt.Sprintf("%d", ts.Rejected),
				fmt.Sprintf("%d", ts.Shed),
				fmt.Sprintf("%d", ts.Failed),
				fmt.Sprintf("%d", ts.Starved),
				fmtFloat(ts.MeanEs, 4),
				fmtFloat(baseEs[ts.Tenant], 4),
				fmtFloat(ret, 4),
			)
		}
		summary.AddRow(
			name,
			fmtFloat(res.MakespanMS, 1),
			fmtFloat(base.MakespanMS, 1),
			fmtFloat(res.Utilization, 4),
			fmt.Sprintf("%d", res.Retried),
			fmt.Sprintf("%d", res.Recovered),
			fmt.Sprintf("%d", res.Failed),
			fmtFloat(minRet, 4),
		)
	}
	retry := faulted.Retry
	tenants.Notes = append(tenants.Notes,
		fmt.Sprintf("stream seed %d: %s", stream.Seed, describeStream(stream)),
		fmt.Sprintf("outages: %s", faulted.Health.String()),
		fmt.Sprintf("retry: up to %d requeues, backoff base %g ms doubling, checkpoints every %d steps", retry.MaxRetries, retry.BackoffMS, retry.CkptSteps),
		describeAdmission(faulted.Admission),
		"E_s means are over completed jobs; retention = faulted mean / undisturbed mean per tenant")
	if !faulted.Membership.IsZero() || !faulted.Autoscale.IsZero() {
		tenants.Notes = append(tenants.Notes,
			"undisturbed = the same scenario without outages, retry and admission: the membership plan and autoscaler of the elastic study below run in both")
	}
	summary.Notes = append(summary.Notes,
		"a crashed node shrinks its lease to the survivors; the run rolls back to its last coordinated checkpoint and replays there",
		"a lease that loses every node requeues the job under the backoff budget; exhaustion marks it failed")
	return []Renderable{tenants, summary}, nil
}

// describeAdmission renders an admission policy on one note line.
func describeAdmission(a job.AdmissionSpec) string {
	if a.IsZero() {
		return "admission: unbounded queueing (no caps)"
	}
	return fmt.Sprintf("admission: per-tenant queue cap %d, max wait %g ms", a.MaxQueue, a.MaxWaitMS)
}
