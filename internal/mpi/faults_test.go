package mpi

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
)

// bothEngines are the engine configurations that must agree bit-for-bit
// under fault injection (contention is DES-only and excluded from the
// cross-engine comparison).
var bothEngines = []struct {
	name string
	opts Options
}{
	{"live", Options{Engine: EngineLive}},
	{"des", Options{Engine: EngineDES}},
	{"symbolic", Options{Engine: EngineSymbolic}},
}

// testInjector is a hand-rolled FaultInjector for corner cases the
// hash-driven faults.Injector cannot hit on demand (e.g. "drop always").
type testInjector struct {
	crashAt     map[int]float64
	drop        func(from, to, seq int) bool
	delayMS     float64
	maxAttempts int
}

func (in *testInjector) CrashTimeMS(rank int) (float64, bool) {
	t, ok := in.crashAt[rank]
	return t, ok
}

func (in *testInjector) DropSend(from, to, seq int) bool {
	return in.drop != nil && in.drop(from, to, seq)
}

func (in *testInjector) RetryDelayMS(failed int) float64 { return in.delayMS }

func (in *testInjector) MaxSendAttempts() int { return in.maxAttempts }

func planInjector(t *testing.T, p faults.Plan, size int) *faults.Injector {
	t.Helper()
	if err := p.Validate(size); err != nil {
		t.Fatal(err)
	}
	return p.Injector()
}

// runBoth executes the program on the live and DES engines with the same
// injector and asserts bit-identical results; it returns the live result
// and error for further assertions.
func runBoth(t *testing.T, speeds []float64, inj FaultInjector, prog Program) (Result, error) {
	t.Helper()
	cl := testCluster(t, speeds...)
	m := testModel(t)
	var results []Result
	var errs []error
	for _, e := range bothEngines {
		opts := e.opts
		opts.Faults = inj
		res, err := Run(context.Background(), cl, m, opts, prog)
		results = append(results, res)
		errs = append(errs, err)
	}
	live, des := results[0], results[1]
	if live.TimeMS != des.TimeMS {
		t.Errorf("TimeMS differs: live %.9f, des %.9f", live.TimeMS, des.TimeMS)
	}
	if live.Messages != des.Messages || live.BytesMoved != des.BytesMoved {
		t.Errorf("traffic differs: live %d msgs/%d B, des %d msgs/%d B",
			live.Messages, live.BytesMoved, des.Messages, des.BytesMoved)
	}
	for r := range live.RankClocks {
		if live.RankClocks[r] != des.RankClocks[r] {
			t.Errorf("rank %d clock differs: live %.9f, des %.9f", r, live.RankClocks[r], des.RankClocks[r])
		}
	}
	liveOut, okLive := ClassifyFaults(len(speeds), errs[0])
	desOut, okDES := ClassifyFaults(len(speeds), errs[1])
	if okLive != okDES {
		t.Errorf("fault classification ok differs: live %v, des %v", okLive, okDES)
	}
	if fmt.Sprint(liveOut.Crashed) != fmt.Sprint(desOut.Crashed) ||
		fmt.Sprint(liveOut.Aborted) != fmt.Sprint(desOut.Aborted) {
		t.Errorf("fault outcome differs:\n live %+v\n des  %+v", liveOut, desOut)
	}
	return live, errs[0]
}

func TestCrashExcludesRankGracefully(t *testing.T) {
	// Rank 2 crashes mid-compute; ranks 0 and 1 keep exchanging messages
	// and must complete untouched.
	inj := planInjector(t, faults.Plan{Crashes: []faults.Crash{{Rank: 2, AtMS: 5}}}, 3)
	res, err := runBoth(t, []float64{100, 100, 100}, inj, func(c *Comm) error {
		if c.Rank() == 2 {
			c.Compute(2e6) // 20 ms: the crash interrupts this
			return nil
		}
		for i := 0; i < 4; i++ {
			if c.Rank() == 0 {
				c.Send(1, i, []float64{1, 2, 3})
			} else {
				c.Recv(0, i)
			}
		}
		return nil
	})
	out, ok := ClassifyFaults(3, err)
	if !ok {
		t.Fatalf("non-fault failure in %v", err)
	}
	if out.Survivors != 2 || out.Crashed[2] != 5 {
		t.Fatalf("want 2 survivors and rank 2 crashed at 5, got %+v", out)
	}
	if res.RankClocks[2] != 5 {
		t.Errorf("crashed rank clock = %g, want exactly 5 (mid-compute truncation)", res.RankClocks[2])
	}
	var crash *CrashError
	if !errors.As(err, &crash) || crash.Rank != 2 || crash.AtMS != 5 {
		t.Errorf("error %v does not carry CrashError{2, 5}", err)
	}
}

func TestCrashCascadesToDependents(t *testing.T) {
	// Rank 0 dies before sending; rank 1's Recv can never complete and
	// cascades at rank 0's death time; rank 2 is independent and survives.
	inj := planInjector(t, faults.Plan{Crashes: []faults.Crash{{Rank: 0, AtMS: 2}}}, 3)
	_, err := runBoth(t, []float64{100, 100, 100}, inj, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Compute(1e6) // 10 ms; dies at 2
			c.Send(1, 7, []float64{1})
		case 1:
			c.Recv(0, 7)
		case 2:
			c.Compute(1e5)
		}
		return nil
	})
	out, ok := ClassifyFaults(3, err)
	if !ok {
		t.Fatalf("non-fault failure in %v", err)
	}
	if out.Survivors != 1 {
		t.Fatalf("want exactly rank 2 surviving, got %+v", out)
	}
	var peer *PeerCrashError
	if !errors.As(err, &peer) {
		t.Fatalf("error %v carries no PeerCrashError", err)
	}
	if peer.Rank != 1 || peer.Peer != 0 || peer.AtMS != 2 {
		t.Errorf("cascade = %+v, want rank 1 aborting on peer 0 at t=2", peer)
	}
}

func TestCrashedRankMessagesStillDelivered(t *testing.T) {
	// Messages posted before the crash are consumable after it: the
	// receiver gets the payload, and only a second Recv cascades.
	inj := planInjector(t, faults.Plan{Crashes: []faults.Crash{{Rank: 0, AtMS: 50}}}, 2)
	var got []float64
	_, err := runBoth(t, []float64{100, 100}, inj, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{42})
			c.Compute(1e7) // dies long before a second send
			c.Send(1, 2, []float64{43})
			return nil
		}
		got = c.Recv(1-1, 1)
		c.Recv(0, 2) // cascades
		return nil
	})
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("pre-crash payload = %v, want [42]", got)
	}
	out, ok := ClassifyFaults(2, err)
	if !ok || out.Survivors != 0 {
		t.Errorf("want both ranks down (crash + cascade), got %+v ok=%v", out, ok)
	}
}

func TestBarrierProceedsWithoutDeadRank(t *testing.T) {
	// Rank 2 dies at t=5 before reaching the barrier; survivors arrive at
	// t=1 and must be released at the death time (failure detection), not
	// hang and not release early.
	inj := planInjector(t, faults.Plan{Crashes: []faults.Crash{{Rank: 2, AtMS: 5}}}, 3)
	m := testModel(t)
	barrierCost := m.BarrierTime(3)
	res, err := runBoth(t, []float64{100, 100, 100}, inj, func(c *Comm) error {
		if c.Rank() == 2 {
			c.Compute(1e6) // dies at 5
			c.Barrier()
			return nil
		}
		c.Compute(1e5) // 1 ms
		c.Barrier()
		return nil
	})
	out, ok := ClassifyFaults(3, err)
	if !ok || out.Survivors != 2 {
		t.Fatalf("want 2 survivors, got %+v ok=%v", out, ok)
	}
	want := 5 + barrierCost
	for r := 0; r < 2; r++ {
		if res.RankClocks[r] != want {
			t.Errorf("survivor rank %d clock = %.9f, want %.9f (release at death time)", r, res.RankClocks[r], want)
		}
	}
}

func TestSecondBarrierAmongSurvivors(t *testing.T) {
	// After a death the next barrier synchronizes survivors only.
	inj := planInjector(t, faults.Plan{Crashes: []faults.Crash{{Rank: 0, AtMS: 1}}}, 3)
	res, err := runBoth(t, []float64{100, 100, 100}, inj, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(1e6)
			return nil
		}
		c.Barrier()
		c.Compute(float64(c.Rank()) * 1e5) // rank 1: 1 ms, rank 2: 2 ms
		c.Barrier()
		return nil
	})
	if out, ok := ClassifyFaults(3, err); !ok || out.Survivors != 2 {
		t.Fatalf("want 2 survivors, got %+v ok=%v", out, ok)
	}
	if res.RankClocks[1] != res.RankClocks[2] {
		t.Errorf("survivors desynchronized: %.9f vs %.9f", res.RankClocks[1], res.RankClocks[2])
	}
}

func TestDropsRetriedAndCounted(t *testing.T) {
	const payloads = 40
	prog := func(c *Comm) error {
		for i := 0; i < payloads; i++ {
			if c.Rank() == 0 {
				c.Send(1, i, make([]float64, 64))
			} else {
				c.Recv(0, i)
			}
		}
		return nil
	}
	clean, err := runBoth(t, []float64{100, 100}, nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	inj := planInjector(t, faults.Plan{Seed: 7, DropProb: 0.3, RetryTimeoutMS: 0.5}, 2)
	lossy, err := runBoth(t, []float64{100, 100}, inj, prog)
	if err != nil {
		t.Fatalf("retry protocol should absorb 30%% loss: %v", err)
	}
	if clean.Messages != payloads {
		t.Fatalf("clean run moved %d messages, want %d", clean.Messages, payloads)
	}
	if lossy.Messages <= clean.Messages {
		t.Errorf("lossy run moved %d messages, want > %d (retransmissions counted)", lossy.Messages, payloads)
	}
	if lossy.BytesMoved <= clean.BytesMoved {
		t.Errorf("lossy run moved %d bytes, want > %d", lossy.BytesMoved, clean.BytesMoved)
	}
	if lossy.TimeMS <= clean.TimeMS {
		t.Errorf("lossy run finished in %.3f ms, want slower than clean %.3f ms", lossy.TimeMS, clean.TimeMS)
	}

	// Same plan, fresh run: bit-identical replay.
	again, _ := runBoth(t, []float64{100, 100}, planInjector(t, faults.Plan{Seed: 7, DropProb: 0.3, RetryTimeoutMS: 0.5}, 2), prog)
	if again.TimeMS != lossy.TimeMS || again.Messages != lossy.Messages {
		t.Errorf("replay differs: %.9f/%d vs %.9f/%d", again.TimeMS, again.Messages, lossy.TimeMS, lossy.Messages)
	}

	// A different seed yields a different loss pattern (overwhelmingly).
	other, _ := runBoth(t, []float64{100, 100}, planInjector(t, faults.Plan{Seed: 8, DropProb: 0.3, RetryTimeoutMS: 0.5}, 2), prog)
	if other.Messages == lossy.Messages && other.TimeMS == lossy.TimeMS {
		t.Errorf("seeds 7 and 8 produced identical fault traces (%d msgs, %.9f ms)", other.Messages, other.TimeMS)
	}
}

func TestISendDropsExtendAvailability(t *testing.T) {
	// A dropped ISend is retransmitted in the background: the receiver
	// sees the payload later, the sender's own clock is unaffected.
	delivered := func(drop func(from, to, seq int) bool) (senderClock, recvClock float64) {
		inj := &testInjector{drop: drop, delayMS: 2, maxAttempts: 3}
		res, err := runBoth(t, []float64{100, 100}, inj, func(c *Comm) error {
			if c.Rank() == 0 {
				c.ISend(1, 1, make([]float64, 128))
			} else {
				c.Recv(0, 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.RankClocks[0], res.RankClocks[1]
	}
	cleanSend, cleanRecv := delivered(nil)
	lossySend, lossyRecv := delivered(func(from, to, seq int) bool { return seq == 0 })
	if lossySend != cleanSend {
		t.Errorf("sender clock changed by background retry: %.9f vs %.9f", lossySend, cleanSend)
	}
	if lossyRecv <= cleanRecv {
		t.Errorf("receiver clock %.9f not delayed past clean %.9f", lossyRecv, cleanRecv)
	}
}

func TestDropStormKillsSender(t *testing.T) {
	inj := &testInjector{drop: func(int, int, int) bool { return true }, delayMS: 1, maxAttempts: 3}
	_, err := runBoth(t, []float64{100, 100}, inj, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	var storm *DropStormError
	if !errors.As(err, &storm) {
		t.Fatalf("error %v carries no DropStormError", err)
	}
	if storm.Rank != 0 || storm.Peer != 1 || storm.Attempts != 3 {
		t.Errorf("storm = %+v, want rank 0 giving up on peer 1 after 3 attempts", storm)
	}
	if out, ok := ClassifyFaults(2, err); !ok || out.Survivors != 0 {
		t.Errorf("want storm + cascade downing both ranks, got %+v ok=%v", out, ok)
	}
}

func TestCollectivesCascadeOnDeadRoot(t *testing.T) {
	// Bcast from a crashed root downs every receiver.
	inj := planInjector(t, faults.Plan{Crashes: []faults.Crash{{Rank: 0, AtMS: 1}}}, 3)
	_, err := runBoth(t, []float64{100, 100, 100}, inj, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(1e6)
		}
		c.Bcast(0, []float64{1, 2})
		return nil
	})
	out, ok := ClassifyFaults(3, err)
	if !ok || out.Survivors != 0 {
		t.Errorf("want all ranks down after root death, got %+v ok=%v", out, ok)
	}
	if len(out.Aborted) != 2 {
		t.Errorf("want 2 cascade aborts, got %+v", out)
	}
}

func TestFaultInjectorZeroPlanIsInert(t *testing.T) {
	prog := func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]float64, 32))
			c.Barrier()
			return nil
		}
		c.Recv(0, 1)
		c.Barrier()
		return nil
	}
	clean, err := runBoth(t, []float64{100, 50}, nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	inert, err := runBoth(t, []float64{100, 50}, planInjector(t, faults.Plan{Seed: 3}, 2), prog)
	if err != nil {
		t.Fatal(err)
	}
	if clean.TimeMS != inert.TimeMS || clean.Messages != inert.Messages {
		t.Errorf("zero plan perturbed the run: %.9f/%d vs %.9f/%d",
			inert.TimeMS, inert.Messages, clean.TimeMS, clean.Messages)
	}
}

func TestValidateRunRejectsZeroAttemptInjector(t *testing.T) {
	cl := testCluster(t, 10, 10)
	inj := &testInjector{maxAttempts: 0}
	_, err := Run(context.Background(), cl, testModel(t), Options{Faults: inj}, func(c *Comm) error { return nil })
	if err == nil {
		t.Fatal("injector with 0 send attempts accepted")
	}
}

func TestClassifyFaultsMixedFailure(t *testing.T) {
	err := errors.Join(
		fmt.Errorf("rank 0: %w", &CrashError{Rank: 0, AtMS: 1}),
		errors.New("rank 1: unrelated explosion"),
	)
	out, ok := ClassifyFaults(3, err)
	if ok {
		t.Error("unrelated failure classified as pure-fault outcome")
	}
	if out.Crashed[0] != 1 {
		t.Errorf("crash not extracted: %+v", out)
	}
	if out, ok := ClassifyFaults(3, nil); !ok || out.Survivors != 3 {
		t.Errorf("nil error misclassified: %+v ok=%v", out, ok)
	}
}
