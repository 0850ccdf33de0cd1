package job

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// FuzzJobStreamFaults drives Simulate with fuzz-derived streams, seeded
// node-fault schedules and admission/retry policies. Whatever the
// inputs: the simulation must terminate, must account for every
// submitted job exactly once across the status counters, and must be
// bit-identical on a rerun of the same inputs whose memo an undisturbed
// call pre-warmed.
func FuzzJobStreamFaults(f *testing.F) {
	f.Add(int64(7), uint8(2), int64(3), uint8(2), uint8(1), 200.0, uint8(1), 40.0, uint8(0))
	f.Add(int64(42), uint8(3), int64(9), uint8(5), uint8(0), 0.0, uint8(2), 50.0, uint8(1))
	f.Add(int64(-1), uint8(1), int64(0), uint8(0), uint8(3), 1000.0, uint8(0), 0.0, uint8(3))

	model, err := simnet.NewParamModel("sunwulf", simnet.Sunwulf100())
	if err != nil {
		f.Fatal(err)
	}
	cl, err := cluster.MMConfig(6)
	if err != nil {
		f.Fatal(err)
	}
	workloads := []string{"jacobi", "cg", "mm"}

	f.Fuzz(func(t *testing.T, seed int64, nTenants uint8, faultSeed int64, failures, maxQueue uint8, maxWaitMS float64, maxRetries uint8, backoffMS float64, polIdx uint8) {
		if math.IsNaN(maxWaitMS) || math.IsInf(maxWaitMS, 0) || maxWaitMS < 0 {
			maxWaitMS = 0
		}
		if math.IsNaN(backoffMS) || math.IsInf(backoffMS, 0) || backoffMS < 0 {
			backoffMS = 0
		}
		nt := int(nTenants)%3 + 1
		stream := StreamSpec{Seed: seed}
		for i := 0; i < nt; i++ {
			stream.Tenants = append(stream.Tenants, TenantSpec{
				Name:      string(rune('a' + i)),
				Workload:  workloads[(i+int(polIdx))%len(workloads)],
				N:         16 + 8*i,
				Width:     1 + (i+int(failures))%4,
				Priority:  i,
				Jobs:      1 + i%3,
				MeanGapMS: 100 + 50*float64(i),
				Shape:     i % 3,
			})
		}
		jobs, err := stream.Jobs()
		if err != nil {
			t.Fatalf("fuzz-built stream invalid: %v", err)
		}
		pols := Policies()
		pol, err := GetPolicy(pols[int(polIdx)%len(pols)])
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			MPI:   mpi.Options{Engine: mpi.EngineSymbolic},
			Alloc: cluster.AllocatorOptions{AcquireMS: 2, ReleaseMS: 1},
			Seed:  seed,
			Health: cluster.HealthSpec{
				Seed: faultSeed, Failures: int(failures) % 7,
				MeanUpMS: 300, MeanDownMS: 150,
			},
			Retry:     RetrySpec{MaxRetries: int(maxRetries) % 4, BackoffMS: backoffMS, CkptSteps: int(maxRetries) % 5},
			Admission: AdmissionSpec{MaxQueue: int(maxQueue) % 5, MaxWaitMS: maxWaitMS},
		}
		if opts.Health.Failures == 0 {
			opts.Health = cluster.HealthSpec{}
		}
		res, err := Simulate(context.Background(), cl, model, jobs, pol, opts)
		if err != nil {
			// Structurally valid inputs must simulate; anything else is a
			// validation seam we built wrong.
			t.Fatalf("Simulate rejected fuzz input: %v", err)
		}
		if got := res.Completed + res.Rejected + res.Shed + res.Failed + res.Starved; got != len(jobs) {
			t.Fatalf("job conservation broken: counters sum to %d, %d submitted (%+v)", got, len(jobs), res)
		}
		counts := map[JobStatus]int{}
		for _, jr := range res.Jobs {
			counts[jr.Status]++
			if jr.Status == StatusDone && (jr.FinishMS < jr.StartMS || jr.WaitMS < 0) {
				t.Fatalf("job %d has inconsistent times: %+v", jr.ID, jr)
			}
		}
		if counts[StatusDone] != res.Completed || counts[StatusRejected] != res.Rejected ||
			counts[StatusShed] != res.Shed || counts[StatusFailed] != res.Failed ||
			counts[StatusStarved] != res.Starved {
			t.Fatalf("counters disagree with per-job statuses: %v vs %+v", counts, res)
		}
		if math.IsNaN(res.MakespanMS) || res.MakespanMS < 0 || res.Utilization < 0 || res.Utilization > 1 {
			t.Fatalf("degenerate aggregates: makespan %g, utilization %g", res.MakespanMS, res.Utilization)
		}
		// The rerun reads a memo an undisturbed call of the same stream
		// filled first: runs shared across calls must not change a bit.
		warm := Options{MPI: opts.MPI, Alloc: opts.Alloc, Seed: opts.Seed, Memo: new(Memo)}
		if _, err := Simulate(context.Background(), cl, model, jobs, pol, warm); err != nil {
			t.Fatalf("undisturbed warm-up errored: %v", err)
		}
		rerun := opts
		rerun.Memo = warm.Memo
		again, err := Simulate(context.Background(), cl, model, jobs, pol, rerun)
		if err != nil {
			t.Fatalf("rerun errored: %v", err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatal("rerun of identical inputs through a pre-warmed memo produced different results")
		}
	})
}
