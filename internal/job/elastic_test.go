package job

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

func TestAutoscaleSpecValidate(t *testing.T) {
	var zero AutoscaleSpec
	if !zero.IsZero() || zero.Validate(8) != nil {
		t.Fatal("zero autoscale spec must be valid and IsZero")
	}
	good := AutoscaleSpec{TargetEs: 0.2, Band: 0.02, WindowMS: 100, MinP: 2, MaxP: 6, StartP: 3}
	if err := good.Validate(8); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*AutoscaleSpec)
		frag string
	}{
		{"zero target", func(a *AutoscaleSpec) { a.TargetEs = 0 }, "target"},
		{"target one", func(a *AutoscaleSpec) { a.TargetEs = 1 }, "target"},
		{"negative band", func(a *AutoscaleSpec) { a.Band = -0.1 }, "band"},
		{"nan band", func(a *AutoscaleSpec) { a.Band = math.NaN() }, "band"},
		{"zero window", func(a *AutoscaleSpec) { a.WindowMS = 0 }, "window"},
		{"one-rung ladder", func(a *AutoscaleSpec) { a.MinP, a.MaxP, a.StartP = 3, 3, 3 }, "two-rung"},
		{"zero minp", func(a *AutoscaleSpec) { a.MinP = 0 }, "MaxP > MinP >= 1"},
		{"maxp over size", func(a *AutoscaleSpec) { a.MaxP = 99 }, "cluster size"},
		{"startp outside", func(a *AutoscaleSpec) { a.StartP = 1 }, "StartP"},
	} {
		a := good
		tc.mut(&a)
		if err := a.Validate(8); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.frag)
		}
	}
}

// elasticStream is a single-tenant trickle of identical width-2 jacobi
// jobs: each runs on its own pair, so per-job E_s is stable and the
// autoscaler's observations are predictable.
func elasticStream(n, jobs int) StreamSpec {
	return StreamSpec{
		Seed: 11,
		Tenants: []TenantSpec{
			{Name: "t", Workload: "jacobi", N: n, Width: 2, Jobs: jobs, MeanGapMS: 120, Shape: 1},
		},
	}
}

func simulateElastic(t *testing.T, engine mpi.Engine, stream StreamSpec, opts Options) Result {
	t.Helper()
	jobs, err := stream.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := GetPolicy("pack")
	if err != nil {
		t.Fatal(err)
	}
	opts.MPI = mpi.Options{Engine: engine}
	res, err := Simulate(context.Background(), testCluster(t, 6), testModel(t), jobs, pol, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateMembershipDrainIsGraceful(t *testing.T) {
	// One width-3 job is running on nodes [0 1 2] when node 1 drains:
	// the job must finish exactly as if membership never changed, and
	// only afterwards does node 1 leave the placeable set.
	jobs := []Job{
		{ID: 0, Tenant: "a", Workload: "jacobi", N: 48, Width: 3, ArrivalMS: 0},
		{ID: 1, Tenant: "a", Workload: "jacobi", N: 48, Width: 3, ArrivalMS: 10},
	}
	pol, _ := GetPolicy("fcfs")
	base := Options{
		MPI:   mpi.Options{Engine: mpi.EngineDES},
		Alloc: cluster.AllocatorOptions{AcquireMS: 5, ReleaseMS: 2},
	}
	plain, err := Simulate(context.Background(), testCluster(t, 8), testModel(t), jobs, pol, base)
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	opts.Membership = cluster.MembershipPlan{Events: []cluster.MemberEvent{
		{Node: 1, AtMS: 20, Op: cluster.OpDrain},
	}}
	res, err := Simulate(context.Background(), testCluster(t, 8), testModel(t), jobs, pol, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigs != 1 {
		t.Fatalf("Reconfigs = %d, want 1", res.Reconfigs)
	}
	// Job 0 was mid-run on the drained node: bitwise-identical fate.
	if !reflect.DeepEqual(res.Jobs[0], plain.Jobs[0]) {
		t.Errorf("drain disturbed the running job:\nplain:   %+v\ndrained: %+v", plain.Jobs[0], res.Jobs[0])
	}
	// Job 1 was queued behind it and must avoid the drained node.
	if res.Jobs[1].Status != StatusDone {
		t.Fatalf("queued job fate = %q", res.Jobs[1].Status)
	}
	for _, r := range res.Jobs[1].Ranks {
		if r == 1 {
			t.Fatalf("job 1 placed on drained node: ranks %v", res.Jobs[1].Ranks)
		}
	}
}

func TestSimulateZeroElasticSpecsMatchPlainPath(t *testing.T) {
	plain := simulate(t, mpi.EngineDES, "pack")
	s := testStream()
	jobs, _ := s.Jobs()
	pol, _ := GetPolicy("pack")
	res, err := Simulate(context.Background(), testCluster(t, 8), testModel(t), jobs, pol, Options{
		MPI:        mpi.Options{Engine: mpi.EngineDES},
		Alloc:      cluster.AllocatorOptions{AcquireMS: 5, ReleaseMS: 2},
		Seed:       s.Seed,
		Membership: cluster.MembershipPlan{},
		Autoscale:  AutoscaleSpec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatal("zero membership/autoscale specs perturbed the undisturbed simulation")
	}
}

func TestSimulateAutoscalerGrowsTowardDesired(t *testing.T) {
	// Target 0.1 with n=48 jobs: the machine ladder needs n=36/43/56/...
	// at p=2..6, so the jobs sustain p=3. Starting at 2 with achieved
	// E_s ≈ 0.26 far above band, the controller grows exactly once and
	// then holds at the model's answer.
	opts := Options{
		Alloc: cluster.AllocatorOptions{AcquireMS: 2, ReleaseMS: 1},
		Autoscale: AutoscaleSpec{
			TargetEs: 0.1, Band: 0.02, WindowMS: 100,
			MinP: 2, MaxP: 6, StartP: 2,
		},
	}
	res := simulateElastic(t, mpi.EngineDES, elasticStream(48, 6), opts)
	if res.Completed != 6 {
		t.Fatalf("completed %d of 6: %+v", res.Completed, res)
	}
	grows, shrinks := 0, 0
	active := 0
	for i, s := range res.Scale {
		if i > 0 && s.AtMS <= res.Scale[i-1].AtMS {
			t.Fatalf("scale samples unordered: %+v", res.Scale)
		}
		if s.ActiveP < 2 || s.ActiveP > 6 {
			t.Fatalf("ActiveP %d outside [2, 6]", s.ActiveP)
		}
		switch s.Decision {
		case "grow":
			grows++
		case "shrink":
			shrinks++
		}
		active = s.ActiveP
	}
	if grows != 1 || shrinks != 0 {
		t.Fatalf("decisions: %d grows / %d shrinks, want exactly 1 grow (samples %+v)", grows, shrinks, res.Scale)
	}
	if res.Reconfigs != 1 {
		t.Fatalf("Reconfigs = %d, want 1", res.Reconfigs)
	}
	// The last sample's pre-decision active count reflects the grow.
	if active != 3 {
		t.Fatalf("final active %d, want the ladder answer 3 (samples %+v)", active, res.Scale)
	}
}

func TestSimulateAutoscalerShrinksTowardDesired(t *testing.T) {
	// Target 0.3 needs n >= 86 even at p=2, so n=48 jobs pin the model
	// answer at MinP; achieved E_s ≈ 0.26 sits below the band, so from
	// StartP=6 the controller sheds one node per observed window, never
	// past MinP, and every shed is graceful (all jobs complete).
	opts := Options{
		Alloc: cluster.AllocatorOptions{AcquireMS: 2, ReleaseMS: 1},
		Autoscale: AutoscaleSpec{
			TargetEs: 0.3, Band: 0.02, WindowMS: 100,
			MinP: 2, MaxP: 6, // StartP 0 defaults to MaxP
		},
	}
	res := simulateElastic(t, mpi.EngineDES, elasticStream(48, 8), opts)
	if res.Completed != 8 {
		t.Fatalf("completed %d of 8: %+v", res.Completed, res)
	}
	shrinks := 0
	last := 6
	for _, s := range res.Scale {
		if s.ActiveP < 2 || s.ActiveP > 6 {
			t.Fatalf("ActiveP %d outside [2, 6]", s.ActiveP)
		}
		if s.Decision == "shrink" {
			shrinks++
		}
		if s.Decision == "grow" {
			t.Fatalf("unexpected grow: %+v", res.Scale)
		}
		last = s.ActiveP
	}
	if shrinks == 0 {
		t.Fatalf("no shrinks observed: %+v", res.Scale)
	}
	if last >= 6 {
		t.Fatalf("active never moved below StartP: %+v", res.Scale)
	}
	if res.Reconfigs != shrinks {
		t.Fatalf("Reconfigs = %d, want the %d shrinks", res.Reconfigs, shrinks)
	}
}

func TestSimulateElasticDeterministicAcrossEngines(t *testing.T) {
	stream := elasticStream(48, 6)
	opts := Options{
		Alloc: cluster.AllocatorOptions{AcquireMS: 2, ReleaseMS: 1},
		Membership: cluster.MembershipPlan{Events: []cluster.MemberEvent{
			{Node: 0, AtMS: 150, Op: cluster.OpDrain},
			{Node: 0, AtMS: 400, Op: cluster.OpJoin},
		}},
		Autoscale: AutoscaleSpec{
			TargetEs: 0.1, Band: 0.02, WindowMS: 100,
			MinP: 2, MaxP: 5, StartP: 2,
		},
	}
	base := simulateElastic(t, mpi.EngineDES, stream, opts)
	if again := simulateElastic(t, mpi.EngineDES, stream, opts); !reflect.DeepEqual(base, again) {
		t.Fatal("elastic rerun differs")
	}
	for _, eng := range []mpi.Engine{mpi.EngineLive, mpi.EngineSymbolic} {
		if got := simulateElastic(t, eng, stream, opts); !reflect.DeepEqual(base, got) {
			t.Fatalf("elastic engine %v result differs from DES", eng)
		}
	}
	if got := base.Completed + base.Rejected + base.Shed + base.Failed + base.Starved; got != len(base.Jobs) {
		t.Fatalf("job conservation broken: %+v", base)
	}
}

func TestSimulatePlanDrainTakesOverPooledNode(t *testing.T) {
	// With StartP 2 on 16 nodes, nodes 2..15 start in the autoscaler's
	// drained pool. A plan drain of a pooled node hands it to the plan:
	// the run must not error, the takeover counts as one reconfig, and
	// the node stays unplaceable — the controller never joins it — until
	// the plan's own join. Node 2 heads the pool, so the controller's
	// first grow would have taken it; node 15 is the fastest, so pack
	// places on it as soon as it is back.
	const joinMS = 1500.0
	jobs, err := elasticStream(64, 16).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := GetPolicy("pack")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		node int
		join bool
	}{
		{"node 15 drain only", 15, false},
		{"node 15 drain then join", 15, true},
		{"node 2 drain then join", 2, true},
	} {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			plan := []cluster.MemberEvent{{Node: tc.node, AtMS: 100, Op: cluster.OpDrain}}
			if tc.join {
				plan = append(plan, cluster.MemberEvent{Node: tc.node, AtMS: joinMS, Op: cluster.OpJoin})
			}
			opts := Options{
				MPI:        mpi.Options{Engine: mpi.EngineSymbolic},
				Alloc:      cluster.AllocatorOptions{AcquireMS: 2, ReleaseMS: 1},
				Membership: cluster.MembershipPlan{Events: plan},
				Autoscale:  AutoscaleSpec{TargetEs: 0.1, Band: 0.02, WindowMS: 200, MinP: 2, MaxP: 5, StartP: 2},
			}
			res, err := Simulate(context.Background(), testCluster(t, 16), testModel(t), jobs, pol, opts)
			if err != nil {
				t.Fatalf("plan drain of a pooled node errored: %v", err)
			}
			if res.Completed != len(jobs) {
				t.Fatalf("completed %d of %d", res.Completed, len(jobs))
			}
			placedAfterJoin := false
			for _, jr := range res.Jobs {
				if !slices.Contains(jr.Ranks, tc.node) {
					continue
				}
				if acquired := jr.StartMS - opts.Alloc.AcquireMS; !tc.join || acquired < joinMS {
					t.Fatalf("job %d placed on node %d at %g ms, before any plan join", jr.ID, tc.node, acquired)
				}
				placedAfterJoin = true
			}
			if tc.join && !placedAfterJoin {
				t.Errorf("node %d never placed after the plan joined it", tc.node)
			}
			moves := 0
			for _, s := range res.Scale {
				if s.Decision != "hold" {
					moves++
				}
			}
			if moves == 0 {
				t.Fatalf("the controller never moved: %+v", res.Scale)
			}
			if want := moves + len(plan); res.Reconfigs != want {
				t.Errorf("Reconfigs = %d, want %d controller moves + %d plan events", res.Reconfigs, moves, len(plan))
			}
		})
	}
}

// FuzzMembershipPlan drives Simulate with fuzz-derived streams under
// random drain/join churn composed with every other section: random
// crash schedules, retries, admission control and the autoscaler from a
// drawn starting size. Whatever the interleaving: the simulation must
// terminate without error, every submitted job must be accounted
// exactly once, reruns must be bit-identical, and the zero (no-op) plan
// must leave the baseline simulation bitwise untouched.
func FuzzMembershipPlan(f *testing.F) {
	f.Add(int64(7), uint8(2), int64(3), uint8(2), uint8(1), uint8(0), uint8(0), 0.0, uint8(0))
	f.Add(int64(42), uint8(4), int64(9), uint8(3), uint8(2), uint8(1), uint8(2), 300.0, uint8(1))
	f.Add(int64(-5), uint8(0), int64(0), uint8(0), uint8(3), uint8(2), uint8(1), 1000.0, uint8(4))
	f.Add(int64(9), uint8(4), int64(5), uint8(1), uint8(0), uint8(3), uint8(4), 3000.0, uint8(2))

	model, err := simnet.NewParamModel("sunwulf", simnet.Sunwulf100())
	if err != nil {
		f.Fatal(err)
	}
	cl, err := cluster.MMConfig(6)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, seed int64, cycles uint8, faultSeed int64, failures, widthSeed, polIdx, maxQueue uint8, maxWaitMS float64, startP uint8) {
		if math.IsNaN(maxWaitMS) || math.IsInf(maxWaitMS, 0) || maxWaitMS < 0 {
			maxWaitMS = 0
		}
		stream := StreamSpec{Seed: seed, Tenants: []TenantSpec{
			{Name: "a", Workload: "jacobi", N: 32, Width: 1 + int(widthSeed)%3, Jobs: 2, MeanGapMS: 150, Shape: 1},
			{Name: "b", Workload: "cg", N: 33, Width: 1 + int(polIdx)%2, Jobs: 2, MeanGapMS: 250, Shape: 0},
		}}
		jobs, err := stream.Jobs()
		if err != nil {
			t.Fatalf("fuzz-built stream invalid: %v", err)
		}
		pols := Policies()
		pol, err := GetPolicy(pols[int(polIdx)%len(pols)])
		if err != nil {
			t.Fatal(err)
		}
		base := Options{
			MPI:       mpi.Options{Engine: mpi.EngineSymbolic},
			Alloc:     cluster.AllocatorOptions{AcquireMS: 2, ReleaseMS: 1},
			Seed:      seed,
			Retry:     RetrySpec{MaxRetries: 1, BackoffMS: 30, CkptSteps: 4},
			Admission: AdmissionSpec{MaxQueue: int(maxQueue) % 5, MaxWaitMS: maxWaitMS},
		}
		if int(failures)%4 > 0 {
			base.Health = cluster.HealthSpec{
				Seed: faultSeed, Failures: int(failures) % 4,
				MeanUpMS: 300, MeanDownMS: 150,
			}
		}
		// A drawn starting size of 2..6 nodes turns the autoscaler on;
		// every sixth draw leaves it off.
		if sp := int(startP) % 6; sp > 0 {
			base.Autoscale = AutoscaleSpec{TargetEs: 0.1, Band: 0.02, WindowMS: 200, MinP: 2, MaxP: 6, StartP: sp + 1}
		}
		plain, err := Simulate(context.Background(), cl, model, jobs, pol, base)
		if err != nil {
			t.Fatalf("baseline rejected fuzz input: %v", err)
		}

		// No-op plan: bitwise identical to the baseline.
		noop := base
		noop.Membership = cluster.MembershipPlan{}
		if res, err := Simulate(context.Background(), cl, model, jobs, pol, noop); err != nil {
			t.Fatalf("no-op plan errored: %v", err)
		} else if !reflect.DeepEqual(plain, res) {
			t.Fatal("no-op membership plan perturbed the simulation")
		}

		// Seeded churn interleaved with the crash schedule.
		churned := base
		churned.Membership = cluster.MembershipPlan{
			Seed: seed ^ faultSeed, Cycles: int(cycles) % 5,
			MeanInMS: 200, MeanOutMS: 120,
		}
		res, err := Simulate(context.Background(), cl, model, jobs, pol, churned)
		if err != nil {
			// Seeded plans never collide with themselves, drains and
			// outages are orthogonal, and a plan drain of a node the
			// autoscaler holds drained takes it over: any error here is a
			// real bug.
			t.Fatalf("churned simulate errored: %v", err)
		}
		if got := res.Completed + res.Rejected + res.Shed + res.Failed + res.Starved; got != len(jobs) {
			t.Fatalf("job conservation broken under churn: %d of %d (%+v)", got, len(jobs), res)
		}
		if math.IsNaN(res.MakespanMS) || res.MakespanMS < 0 {
			t.Fatalf("degenerate makespan %g", res.MakespanMS)
		}
		again, err := Simulate(context.Background(), cl, model, jobs, pol, churned)
		if err != nil {
			t.Fatalf("churned rerun errored: %v", err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatal("churned rerun of identical inputs produced different results")
		}
	})
}
