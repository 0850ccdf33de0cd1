package mpi

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// phasedFactory builds a resumable test program: phases rounds of
// compute + ring exchange + barrier, checkpointing [phasesDone] every
// interval phases. starts records each attempt's resume phase.
func phasedFactory(phases, interval int, starts *[]int) func(Instance) (RecoverableProgram, error) {
	return func(inst Instance) (RecoverableProgram, error) {
		start := 0
		if inst.Resume != nil {
			start = int(inst.Resume.Parts[0][0])
		}
		if starts != nil {
			*starts = append(*starts, start)
		}
		return func(c Comm, ck *Checkpointer) error {
			for ph := start; ph < phases; ph++ {
				c.Compute(float64(20000 * (c.Rank() + 1)))
				if c.Size() > 1 {
					to := (c.Rank() + 1) % c.Size()
					from := (c.Rank() + c.Size() - 1) % c.Size()
					c.Send(to, 7, []float64{float64(ph)})
					c.Recv(from, 7)
				}
				c.Barrier()
				if interval > 0 && (ph+1)%interval == 0 && ph+1 < phases {
					ck.Save(c, []float64{float64(ph + 1)})
				}
			}
			return nil
		}, nil
	}
}

// runRecoveredBoth executes the factory under both engines with the same
// injector, asserting the recovered results are bit-identical, and
// returns the live result.
func runRecoveredBoth(t *testing.T, speeds []float64, inj FaultInjector, factory func(Instance) (RecoverableProgram, error)) (Result, error) {
	t.Helper()
	cl := testCluster(t, speeds...)
	m := testModel(t)
	var results []Result
	var errs []error
	for _, e := range bothEngines {
		opts := e.opts
		opts.Faults = inj
		res, err := RunRecoverable(context.Background(), cl, m, opts, factory)
		results = append(results, res)
		errs = append(errs, err)
	}
	live, des := results[0], results[1]
	if (errs[0] == nil) != (errs[1] == nil) {
		t.Fatalf("error disagreement: live %v, des %v", errs[0], errs[1])
	}
	if !reflect.DeepEqual(live, des) {
		t.Errorf("recovered results differ:\nlive: %+v\ndes:  %+v", live, des)
	}
	return live, errs[0]
}

func TestRecoverableNoFaultMatchesPlainRun(t *testing.T) {
	speeds := []float64{100, 80, 120}
	factory := phasedFactory(10, 0, nil)
	rec, err := runRecoveredBoth(t, speeds, nil, factory)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempts != 1 || rec.Checkpoints != 0 || rec.CheckpointMS != 0 || rec.Events != nil {
		t.Errorf("healthy run shows recovery bookkeeping: %+v", rec)
	}

	// The fault-free recovered run must equal the plain Run exactly,
	// recovery bookkeeping included: one attempt, nothing else.
	prog, err := factory(Instance{Ranks: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(context.Background(), testCluster(t, speeds...), testModel(t), Options{}, func(c Comm) error {
		return prog(c, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Attempts != 1 {
		t.Errorf("plain run reports %d attempts, want 1", plain.Attempts)
	}
	if !reflect.DeepEqual(rec, plain) {
		t.Errorf("recovered (no-fault) result differs from plain run:\nrec:   %+v\nplain: %+v", rec, plain)
	}
}

func TestRecoverableCrashRecovers(t *testing.T) {
	speeds := []float64{100, 80, 120, 90}
	// ~2.6 ms per phase: the crash at 30 ms lands mid-run, after the
	// phase-5 and phase-10 checkpoints have committed.
	inj := &testInjector{crashAt: map[int]float64{2: 30.0}, maxAttempts: 1}
	var starts []int
	rec, err := runRecoveredBoth(t, speeds, inj, phasedFactory(20, 5, &starts))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempts != 2 {
		t.Fatalf("want one recovery, got %+v", rec)
	}
	if len(rec.Events) != 1 {
		t.Fatalf("want 1 event, got %d", len(rec.Events))
	}
	ev := rec.Events[0]
	if _, ok := ev.Outcome.Crashed[2]; !ok {
		t.Errorf("event blames %v, want crash of rank 2", ev.Outcome)
	}
	for _, s := range ev.Survivors {
		if s == 2 {
			t.Errorf("dead rank 2 among survivors %v", ev.Survivors)
		}
	}
	if ev.ResumeMS != ev.FailedAtMS+1+5 { // 1 ms detection + 5 ms restart
		t.Errorf("ResumeMS %.3f, want FailedAtMS %.3f + 6", ev.ResumeMS, ev.FailedAtMS)
	}
	if rec.TimeMS <= ev.ResumeMS {
		t.Errorf("final makespan %.3f not beyond resume point %.3f", rec.TimeMS, ev.ResumeMS)
	}
	// The dead rank keeps its death-attempt clock; survivors end later.
	if rec.RankClocks[2] >= rec.TimeMS {
		t.Errorf("dead rank clock %.3f >= makespan %.3f", rec.RankClocks[2], rec.TimeMS)
	}
	// The second attempt resumed from a committed checkpoint, not scratch.
	if len(starts) < 4 || starts[len(starts)-1] == 0 {
		t.Errorf("second attempt did not resume from a checkpoint: starts %v", starts)
	}
	if got := starts[len(starts)-1]; got%5 != 0 || got <= 0 || got >= 20 {
		t.Errorf("resume phase %d not a committed checkpoint boundary", got)
	}
}

func TestRecoverableRestartsFromScratchWithoutCheckpoints(t *testing.T) {
	speeds := []float64{100, 100, 100}
	inj := &testInjector{crashAt: map[int]float64{1: 4.0}, maxAttempts: 1}
	var starts []int
	rec, err := runRecoveredBoth(t, speeds, inj, phasedFactory(12, 0, &starts))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempts < 2 || rec.Checkpoints != 0 {
		t.Fatalf("want checkpoint-free recovery, got %+v", rec)
	}
	for _, s := range starts {
		if s != 0 {
			t.Errorf("scratch restart resumed at phase %d", s)
		}
	}
	if rec.Events[0].ResumeSeq != -1 {
		t.Errorf("ResumeSeq %d, want -1 (no snapshot)", rec.Events[0].ResumeSeq)
	}
}

func TestCheckpointMidWriteCrashDoesNotCommit(t *testing.T) {
	speeds := []float64{100, 100, 100}
	// The Save write takes 0.5 ms + 8 bytes at 100 MB/s from 10 ms on,
	// and rank 1's crash at 10.25 ms lands inside its write window.
	var resumes []bool
	factory := func(inst Instance) (RecoverableProgram, error) {
		resumes = append(resumes, inst.Resume != nil)
		return func(c Comm, ck *Checkpointer) error {
			c.Compute(1e6) // 10 ms at 100 Mflops
			ck.Save(c, []float64{1})
			c.Compute(1e6)
			return nil
		}, nil
	}
	inj := &testInjector{crashAt: map[int]float64{1: 10.25}, maxAttempts: 1}
	rec, err := runRecoveredBoth(t, speeds, inj, factory)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempts != 2 {
		t.Fatalf("want one recovery, got %+v", rec)
	}
	// Attempt 1 (after the failure) must NOT see the torn checkpoint.
	for i, r := range resumes[:4] { // two engines x two attempts
		if r {
			t.Errorf("attempt call %d resumed from an uncommitted checkpoint", i)
		}
	}
	// The survivors' rerun checkpoint does commit.
	if rec.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1 (survivor rerun only)", rec.Checkpoints)
	}
	// Survivors aborted via the checkpoint's missing-contributor check.
	if _, ok := rec.Events[0].Outcome.Aborted[0]; !ok {
		t.Errorf("rank 0 should have peer-aborted at the torn checkpoint: %+v", rec.Events[0].Outcome)
	}
}

func TestRecoverableNoSurvivors(t *testing.T) {
	speeds := []float64{100, 100}
	inj := &testInjector{crashAt: map[int]float64{0: 2.0, 1: 2.5}, maxAttempts: 1}
	_, err := RunRecoverable(context.Background(), testCluster(t, speeds...), testModel(t),
		Options{Faults: inj}, phasedFactory(20, 5, nil))
	if err == nil || !strings.Contains(err.Error(), "no survivors") {
		t.Fatalf("want no-survivors failure, got %v", err)
	}
}

func TestRecoverableNonFaultErrorPassesThrough(t *testing.T) {
	boom := errors.New("boom")
	factory := func(inst Instance) (RecoverableProgram, error) {
		return func(c Comm, ck *Checkpointer) error {
			if c.Rank() == 1 {
				return boom
			}
			return nil
		}, nil
	}
	rec, err := RunRecoverable(context.Background(), testCluster(t, 100, 100), testModel(t),
		Options{}, factory)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want program error surfaced, got %v", err)
	}
	if rec.Attempts != 1 {
		t.Errorf("non-fault error must not trigger recovery: %+v", rec)
	}
}

// TestRecoveredSpansIdenticalAcrossEngines asserts recovered runs emit
// identical crash classifications and identical recovery span sequences
// on the live and DES transports.
func TestRecoveredSpansIdenticalAcrossEngines(t *testing.T) {
	speeds := []float64{100, 80, 120, 90}
	cl := testCluster(t, speeds...)
	m := testModel(t)
	factory := phasedFactory(20, 5, nil)

	type attempt struct {
		rec    Result
		spans  []trace.Span
		crashd map[int]float64
	}
	var got []attempt
	for _, e := range bothEngines {
		opts := e.opts
		opts.Faults = &testInjector{crashAt: map[int]float64{2: 5.0}, maxAttempts: 1}
		opts.Trace = trace.New()
		rec, err := RunRecoverable(context.Background(), cl, m, opts, factory)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		var spans []trace.Span
		for _, s := range opts.Trace.Spans() {
			if s.Kind == trace.KindRecover || s.Kind == trace.KindCheckpoint {
				spans = append(spans, s)
			}
		}
		got = append(got, attempt{rec: rec, spans: spans, crashd: rec.Events[0].Outcome.Crashed})
	}
	if !reflect.DeepEqual(got[0].crashd, got[1].crashd) {
		t.Errorf("crash maps differ: live %v, des %v", got[0].crashd, got[1].crashd)
	}
	if !reflect.DeepEqual(got[0].spans, got[1].spans) {
		t.Errorf("recovery span sequences differ:\nlive: %v\ndes:  %v", got[0].spans, got[1].spans)
	}
	if len(got[0].spans) == 0 {
		t.Error("no checkpoint/recover spans recorded")
	}
	var recovers int
	for _, s := range got[0].spans {
		if s.Kind == trace.KindRecover {
			recovers++
			if s.Rank == 2 {
				t.Errorf("dead rank 2 has a recover span: %+v", s)
			}
		}
	}
	if recovers != 3 {
		t.Errorf("want 3 recover spans (one per survivor), got %d", recovers)
	}
}
