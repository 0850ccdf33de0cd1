package mpi

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// runReconfiguredBoth executes the factory under both engines with the
// same plan, injector and recovery options, asserting the results are
// bit-identical, and returns the live result.
func runReconfiguredBoth(t *testing.T, speeds []float64, inj FaultInjector, ropts RecoveryOptions, plan []ReconfigEvent, factory func(Instance) (RecoverableProgram, error)) (RecoveredResult, error) {
	t.Helper()
	cl := testCluster(t, speeds...)
	m := testModel(t)
	var results []RecoveredResult
	var errs []error
	for _, e := range bothEngines {
		opts := e.opts
		opts.Faults = inj
		res, err := RunReconfigurable(context.Background(), cl, m, opts, ropts, plan, factory)
		results = append(results, res)
		errs = append(errs, err)
	}
	live, des := results[0], results[1]
	if (errs[0] == nil) != (errs[1] == nil) {
		t.Fatalf("error disagreement: live %v, des %v", errs[0], errs[1])
	}
	if !reflect.DeepEqual(live, des) {
		t.Errorf("reconfigured results differ:\nlive: %+v\ndes:  %+v", live, des)
	}
	return live, errs[0]
}

// memberFactory is phasedFactory plus a log of each instance's
// original-rank membership.
func memberFactory(phases, interval int, starts *[]int, members *[][]int) func(Instance) (RecoverableProgram, error) {
	inner := phasedFactory(phases, interval, starts)
	return func(inst Instance) (RecoverableProgram, error) {
		if members != nil {
			*members = append(*members, append([]int(nil), inst.Ranks...))
		}
		return inner(inst)
	}
}

// TestReconfigurableEmptyPlanMatchesRecoverable: an empty plan is plain
// crash recovery, exactly like a nil one.
func TestReconfigurableEmptyPlanMatchesRecoverable(t *testing.T) {
	speeds := []float64{100, 80, 120, 90}
	inj := &testInjector{crashAt: map[int]float64{2: 30.0}, maxAttempts: 1}
	factory := phasedFactory(20, 5, nil)
	cl := testCluster(t, speeds...)
	m := testModel(t)
	opts := Options{Engine: EngineDES, Faults: inj}
	a, errA := RunReconfigurable(context.Background(), cl, m, opts, RecoveryOptions{}, nil, factory)
	b, errB := RunReconfigurable(context.Background(), cl, m, opts, RecoveryOptions{}, []ReconfigEvent{}, factory)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error disagreement: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("empty-plan reconfigurable differs from nil-plan recovery:\nrec:  %+v\nconf: %+v", a, b)
	}
	if b.Reconfigs != 0 {
		t.Errorf("empty plan counted %d reconfigs", b.Reconfigs)
	}
}

// TestReconfigurableShrinkThenGrow drives a planned shrink (drop rank 2)
// and a later planned grow (bring it back): the run completes on the full
// membership with both engines bit-identical, no unplanned recovery, and
// each stop resuming from a committed checkpoint.
func TestReconfigurableShrinkThenGrow(t *testing.T) {
	speeds := []float64{100, 80, 120, 90}
	plan := []ReconfigEvent{
		{AtMS: 20, Ranks: []int{0, 1, 3}},
		{AtMS: 40, Ranks: []int{0, 1, 2, 3}},
	}
	var starts []int
	var members [][]int
	rec, err := runReconfiguredBoth(t, speeds, nil, RecoveryOptions{}, plan,
		memberFactory(20, 2, &starts, &members))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempts != 3 || rec.Reconfigs != 2 {
		t.Fatalf("want 3 attempts / 2 reconfigs, got %+v", rec)
	}
	if rec.Recovered {
		t.Error("planned reconfiguration must not count as recovery")
	}
	if len(rec.Events) != 2 {
		t.Fatalf("want 2 events, got %d", len(rec.Events))
	}
	for i, ev := range rec.Events {
		if !ev.Planned {
			t.Errorf("event %d not marked planned: %+v", i, ev)
		}
		if len(ev.Outcome.Crashed) != 0 {
			t.Errorf("planned event %d blames crashes: %+v", i, ev.Outcome)
		}
		// Planned stops charge ReconfigMS (default = RestartMS = 5), no
		// detection latency.
		if ev.ResumeMS != ev.FailedAtMS+5 {
			t.Errorf("event %d ResumeMS %.3f, want FailedAtMS %.3f + 5", i, ev.ResumeMS, ev.FailedAtMS)
		}
		if ev.FailedAtMS != plan[i].AtMS {
			t.Errorf("event %d stopped at %.3f, want the scheduled %.3f", i, ev.FailedAtMS, plan[i].AtMS)
		}
	}
	if !reflect.DeepEqual(rec.Events[0].Survivors, []int{0, 1, 3}) {
		t.Errorf("shrink survivors %v, want [0 1 3]", rec.Events[0].Survivors)
	}
	if !reflect.DeepEqual(rec.Events[1].Survivors, []int{0, 1, 2, 3}) {
		t.Errorf("grow survivors %v, want [0 1 2 3]", rec.Events[1].Survivors)
	}
	// Memberships per attempt per engine: full, shrunk, regrown.
	want := [][]int{{0, 1, 2, 3}, {0, 1, 3}, {0, 1, 2, 3}}
	for i, m := range members {
		if !reflect.DeepEqual(m, want[i%3]) {
			t.Errorf("attempt %d membership %v, want %v", i%3, m, want[i%3])
		}
	}
	// Both stops resumed from a committed checkpoint boundary, not
	// scratch (starts repeat per engine: initial, post-shrink, post-grow).
	for i, s := range starts {
		if i%3 == 0 {
			continue
		}
		if s%2 != 0 || s <= 0 {
			t.Errorf("resume phase %d not a committed checkpoint boundary (starts %v)", s, starts)
		}
	}
	if rec.TimeMS <= plan[1].AtMS {
		t.Errorf("final makespan %.3f not beyond the last stop %.3f", rec.TimeMS, plan[1].AtMS)
	}
}

// TestReconfigurableStaleEventAppliesAtStart: an event at instant 0 is
// already due when the first instance launches, so the run starts
// directly on the target subset.
func TestReconfigurableStaleEventAppliesAtStart(t *testing.T) {
	speeds := []float64{100, 80, 120}
	plan := []ReconfigEvent{{AtMS: 0, Ranks: []int{0, 2}}}
	var members [][]int
	rec, err := runReconfiguredBoth(t, speeds, nil, RecoveryOptions{}, plan,
		memberFactory(8, 0, nil, &members))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempts != 1 || rec.Reconfigs != 1 || rec.Recovered {
		t.Fatalf("want a single attempt on the reshaped membership, got %+v", rec)
	}
	if !reflect.DeepEqual(members[0], []int{0, 2}) {
		t.Errorf("initial membership %v, want [0 2]", members[0])
	}
	if len(rec.Events) != 1 || !rec.Events[0].Planned || rec.Events[0].ResumeMS != 0 {
		t.Errorf("stale event record wrong: %+v", rec.Events)
	}
}

// TestReconfigurableCrashedRankNeverRejoins: rank 1 really crashes before
// the planned grow that targets it; the grow proceeds on the remaining
// live targets only.
func TestReconfigurableCrashedRankNeverRejoins(t *testing.T) {
	speeds := []float64{100, 100, 100}
	inj := &testInjector{crashAt: map[int]float64{1: 4.0}, maxAttempts: 1}
	plan := []ReconfigEvent{{AtMS: 40, Ranks: []int{0, 1, 2}}}
	var members [][]int
	rec, err := runReconfiguredBoth(t, speeds, inj, RecoveryOptions{}, plan,
		memberFactory(30, 5, nil, &members))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Recovered || rec.Reconfigs != 1 {
		t.Fatalf("want one recovery and one reconfig, got %+v", rec)
	}
	for i, m := range members {
		if i%3 == 0 {
			continue // initial full membership
		}
		for _, r := range m {
			if r == 1 {
				t.Errorf("dead rank 1 rejoined in attempt membership %v", m)
			}
		}
	}
	last := members[len(members)-1]
	if !reflect.DeepEqual(last, []int{0, 2}) {
		t.Errorf("post-grow membership %v, want [0 2] (rank 1 stays dead)", last)
	}
}

func TestReconfigurablePlanValidation(t *testing.T) {
	cl := testCluster(t, 100, 100)
	m := testModel(t)
	factory := phasedFactory(4, 0, nil)
	cases := []struct {
		name string
		plan []ReconfigEvent
		want string
	}{
		{"negative instant", []ReconfigEvent{{AtMS: -1, Ranks: []int{0}}}, "invalid instant"},
		{"out of order", []ReconfigEvent{{AtMS: 5, Ranks: []int{0}}, {AtMS: 5, Ranks: []int{1}}}, "not after"},
		{"empty target", []ReconfigEvent{{AtMS: 5}}, "no target ranks"},
		{"rank range", []ReconfigEvent{{AtMS: 5, Ranks: []int{0, 2}}}, "out of range"},
		{"unsorted ranks", []ReconfigEvent{{AtMS: 5, Ranks: []int{1, 0}}}, "ascending"},
	}
	for _, tc := range cases {
		_, err := RunReconfigurable(context.Background(), cl, m, Options{}, RecoveryOptions{}, tc.plan, factory)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestReconfigurableDeadTarget: the only target rank of a planned event
// has already crashed — the supervisor abandons the run priceably.
func TestReconfigurableDeadTarget(t *testing.T) {
	inj := &testInjector{crashAt: map[int]float64{1: 2.0}, maxAttempts: 1}
	plan := []ReconfigEvent{{AtMS: 10, Ranks: []int{1}}}
	_, err := runReconfiguredBoth(t, []float64{100, 100}, inj, RecoveryOptions{}, plan,
		phasedFactory(40, 5, nil))
	if err == nil || !errors.Is(err, ErrRecoveryFailed) {
		t.Fatalf("want ErrRecoveryFailed for a dead reconfiguration target, got %v", err)
	}
}
