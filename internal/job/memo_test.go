package job

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/workload"
)

// memoTestHealth is an outage schedule on the 16-node shared cluster
// that strikes leases of the default stream mid-run (rollback on the
// survivors) and takes out a whole low-index lease (requeue).
func memoTestHealth() cluster.HealthSpec {
	return cluster.HealthSpec{Events: []cluster.NodeEvent{
		{Node: 1, DownMS: 150, UpMS: 700},
		{Node: 8, DownMS: 170, UpMS: 760},
		{Node: 0, DownMS: 560, UpMS: 1250},
		{Node: 2, DownMS: 565, UpMS: 1260},
		{Node: 3, DownMS: 570, UpMS: 1270},
	}}
}

// memoTestOptions returns the undisturbed and faulted options of the
// shared-memo tests.
func memoTestOptions() (plain, faulted Options) {
	plain = Options{
		MPI:   mpi.Options{Engine: mpi.EngineDES},
		Alloc: cluster.AllocatorOptions{AcquireMS: 5, ReleaseMS: 2},
		Seed:  42,
	}
	faulted = plain
	faulted.Health = memoTestHealth()
	faulted.Retry = DefaultRetry()
	faulted.Admission = AdmissionSpec{MaxQueue: 2, MaxWaitMS: 800}
	return plain, faulted
}

func TestSimulateSharedMemoMatchesPrivate(t *testing.T) {
	cl := testCluster(t, 16)
	model := testModel(t)
	jobs, err := DefaultStream().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	plain, faulted := memoTestOptions()
	run := func(pol string, opts Options) Result {
		t.Helper()
		p, err := GetPolicy(pol)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(context.Background(), cl, model, jobs, p, opts)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		return res
	}
	type call struct {
		pol     string
		faulted bool
	}
	private := map[call]Result{}
	recovered := 0
	for _, pol := range Policies() {
		private[call{pol, false}] = run(pol, plain)
		res := run(pol, faulted)
		private[call{pol, true}] = res
		recovered += res.Recovered
	}
	if recovered == 0 {
		t.Fatal("the outage schedule forced no rollback: the faulted memo path is untested")
	}
	for _, faultedFirst := range []bool{false, true} {
		memo := new(Memo)
		for _, pol := range Policies() {
			for _, f := range []bool{faultedFirst, !faultedFirst} {
				opts := plain
				if f {
					opts = faulted
				}
				opts.Memo = memo
				if got := run(pol, opts); !reflect.DeepEqual(got, private[call{pol, f}]) {
					t.Errorf("faulted first %v, %s faulted %v: shared-memo result differs from a private memo", faultedFirst, pol, f)
				}
			}
		}
	}
}

func TestSimulateMemoKeysBySpeedVector(t *testing.T) {
	// After the four undisturbed calls, the shared memo holds exactly one
	// run per distinct (workload, N, leased speed vector): placements on
	// different node IDs with equal speeds share a run.
	cl := testCluster(t, 16)
	model := testModel(t)
	jobs, err := DefaultStream().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := memoTestOptions()
	plain.Memo = new(Memo)
	want := map[memoKey]bool{}
	placements := map[string]bool{}
	for _, name := range Policies() {
		pol, err := GetPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(context.Background(), cl, model, jobs, pol, plain)
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range res.Jobs {
			sub, err := cl.Subset("placement", jr.Ranks...)
			if err != nil {
				t.Fatal(err)
			}
			want[memoKey{workload: jr.Workload, n: jr.N, speeds: speedKey(sub)}] = true
			placements[fmt.Sprintf("%s/%d/%v", jr.Workload, jr.N, jr.Ranks)] = true
		}
	}
	if len(plain.Memo.runs) != len(want) {
		t.Errorf("memo holds %d runs, want %d distinct speed keys", len(plain.Memo.runs), len(want))
	}
	for k := range want {
		if _, ok := plain.Memo.runs[k]; !ok {
			t.Errorf("memo lacks the run of %s n=%d on a leased speed vector", k.workload, k.n)
		}
	}
	if len(want) >= len(placements) {
		t.Errorf("%d speed keys for %d node-ID placements: no placements shared a run", len(want), len(placements))
	}
}

func TestMemoRunsReproduceFromTheirKeys(t *testing.T) {
	// Every run a faulted stream memoizes must come out the same when
	// executed from its key alone: on a fresh cluster carrying only the
	// key's speed vector (new node names and classes), under the key's
	// crash plan and checkpoint cadence. This is what makes sharing by
	// key sound: the key holds every input that decides a run, and node
	// identity is not one of them.
	cl := testCluster(t, 16)
	model := testModel(t)
	jobs, err := DefaultStream().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	_, faulted := memoTestOptions()
	faulted.Memo = new(Memo)
	for _, name := range Policies() {
		pol, err := GetPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Simulate(context.Background(), cl, model, jobs, pol, faulted); err != nil {
			t.Fatal(err)
		}
	}
	crashed := 0
	for k, want := range faulted.Memo.runs {
		nodes := make([]cluster.Node, 0, len(k.speeds)/8)
		for i := 0; i < len(k.speeds); i += 8 {
			speed := math.Float64frombits(binary.LittleEndian.Uint64([]byte(k.speeds[i : i+8])))
			nodes = append(nodes, cluster.Node{Name: fmt.Sprintf("key-%d", i/8), Class: "key", SpeedMflops: speed})
		}
		sub, err := cluster.New("key", nodes...)
		if err != nil {
			t.Fatal(err)
		}
		var crashes []faults.Crash
		for i := 0; i < len(k.crashes); i += 16 {
			b := []byte(k.crashes[i : i+16])
			crashes = append(crashes, faults.Crash{
				Rank: int(binary.LittleEndian.Uint64(b)),
				AtMS: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			})
		}
		opts := faulted
		opts.Retry.CkptSteps = k.ckptSteps
		got, err := runInner(context.Background(), workload.MustGet(k.workload), sub, model, opts, k.n, crashes)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s n=%d with %d crashes: memoized %+v, from its key %+v", k.workload, k.n, len(crashes), want, got)
		}
		if len(crashes) > 0 {
			crashed++
		}
	}
	if crashed == 0 {
		t.Fatal("no crash-plan run was memoized: the faulted key is untested")
	}
}
