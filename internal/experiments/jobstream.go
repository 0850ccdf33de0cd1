package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/job"
)

// Job-stream experiment parameters: one shared mixed cluster, the
// canonical three-tenant stream, and small fixed lease charges so
// acquire/release show up in every wait without dominating it.
const (
	// JobStreamP is the shared cluster width.
	JobStreamP = 16
	// JobStreamAcquireMS and JobStreamReleaseMS are the virtual-time
	// lease charges.
	JobStreamAcquireMS = 5
	JobStreamReleaseMS = 2
)

// JobStream runs the multi-tenant scenario: the default three-tenant
// Poisson/Erlang job stream admitted onto ONE shared heterogeneous
// cluster under every registered scheduling policy, with each job
// executed as a real virtual-time run on its leased subset. The first
// table reports, per policy and tenant, the achieved isospeed-efficiency
// over response time next to the dedicated baseline (same placement,
// zero wait, zero charges) — the retention column is the fraction of
// dedicated efficiency that survived sharing. The second table compares
// the policies themselves: makespan, utilization and the worst tenant's
// retention (the fairness floor).
func (s *Suite) JobStream(ctx context.Context) ([]Renderable, error) {
	stream := job.DefaultStream()
	return s.JobStreamWith(ctx, stream, JobStreamP, job.Policies())
}

// JobStreamWith is the parameterized core shared with the jobstream
// RunSpec kind: any stream, shared width and policy subset.
func (s *Suite) JobStreamWith(ctx context.Context, stream job.StreamSpec, sharedP int, policies []string) ([]Renderable, error) {
	cl, jobs, opts, err := s.streamSetup(stream, sharedP, job.Options{})
	if err != nil {
		return nil, err
	}

	tenants := &Table{
		Title: fmt.Sprintf("Job stream: per-tenant speed-efficiency on one shared %d-node cluster", sharedP),
		Headers: []string{
			"Policy", "Tenant", "Jobs", "Mean wait (ms)", "Mean resp (ms)",
			"E_s achieved", "E_s dedicated", "Retention",
		},
	}
	summary := &Table{
		Title: "Job stream: policy comparison",
		Headers: []string{
			"Policy", "Makespan (ms)", "Utilization", "Min tenant retention",
		},
	}
	for _, name := range policies {
		pol, err := job.GetPolicy(name)
		if err != nil {
			return nil, err
		}
		res, err := job.Simulate(ctx, cl, s.model, jobs, pol, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: jobstream %s: %w", name, err)
		}
		minRet := 0.0
		for i, ts := range res.ByTenant() {
			if i == 0 || ts.Retention < minRet {
				minRet = ts.Retention
			}
			tenants.AddRow(
				name, ts.Tenant,
				fmt.Sprintf("%d", ts.Jobs),
				fmtFloat(ts.MeanWaitMS, 1),
				fmtFloat(ts.MeanRespMS, 1),
				fmtFloat(ts.MeanEs, 4),
				fmtFloat(ts.MeanDedicated, 4),
				fmtFloat(ts.Retention, 4),
			)
		}
		summary.AddRow(
			name,
			fmtFloat(res.MakespanMS, 1),
			fmtFloat(res.Utilization, 4),
			fmtFloat(minRet, 4),
		)
	}
	tenants.Notes = append(tenants.Notes,
		fmt.Sprintf("stream seed %d: %s", stream.Seed, describeStream(stream)),
		fmt.Sprintf("lease charges: acquire %d ms, release %d ms, both inside the tenant's response time", JobStreamAcquireMS, JobStreamReleaseMS),
		"E_s dedicated = same job, same placement, zero wait and zero charges; retention = achieved/dedicated")
	summary.Notes = append(summary.Notes,
		"pack (speed-aware backfill) trades fairness for throughput; fcfs preserves order at the cost of head-of-line blocking")
	return []Renderable{tenants, summary}, nil
}

// streamSetup builds what every job-stream study runs on: the shared
// cluster, the stream's jobs, and the scenario completed with the
// suite's MPI options and seed, the lease charges and a memo — the
// scenario's own when set, else a fresh one. Every Simulate call of a
// study shares the cost model, MPI options and seed, so they share one
// memo and each distinct inner run executes once.
func (s *Suite) streamSetup(stream job.StreamSpec, sharedP int, scenario job.Options) (*cluster.Cluster, []job.Job, job.Options, error) {
	cl, err := cluster.MMConfig(sharedP)
	if err != nil {
		return nil, nil, job.Options{}, err
	}
	jobs, err := stream.Jobs()
	if err != nil {
		return nil, nil, job.Options{}, err
	}
	scenario.MPI = s.Cfg.mpiOpts()
	scenario.Alloc = cluster.AllocatorOptions{AcquireMS: JobStreamAcquireMS, ReleaseMS: JobStreamReleaseMS}
	scenario.Seed = s.Cfg.Seed
	if scenario.Memo == nil {
		scenario.Memo = new(job.Memo)
	}
	return cl, jobs, scenario, nil
}

// describeStream renders a stream's tenant mixes on one line.
func describeStream(s job.StreamSpec) string {
	out := ""
	for i, t := range s.Tenants {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%d×%s(N=%d,w=%d)", t.Name, t.Jobs, t.Workload, t.N, t.Width)
	}
	return out
}
