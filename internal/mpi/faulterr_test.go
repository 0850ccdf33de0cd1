package mpi

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestFaultErrorsUnwrap pins the error-chain hygiene contract: the three
// fault error types must be reachable with errors.As and matchable with
// errors.Is through every wrapping layer the runtime (and callers) apply
// — fmt.Errorf %w chains and errors.Join trees.
func TestFaultErrorsUnwrap(t *testing.T) {
	crash := &CrashError{Rank: 2, AtMS: 5.25}
	peer := &PeerCrashError{Rank: 0, Peer: 2, AtMS: 6.5}
	storm := &DropStormError{Rank: 1, Peer: 3, Attempts: 8, AtMS: 9.75}

	wrapped := errors.Join(
		fmt.Errorf("mpi: rank 2: %w", crash),
		fmt.Errorf("outer: %w", fmt.Errorf("mpi: rank 0: %w", peer)),
		fmt.Errorf("mpi: rank 1: %w", storm),
	)

	var gotCrash *CrashError
	if !errors.As(wrapped, &gotCrash) || gotCrash.Rank != 2 || gotCrash.AtMS != 5.25 {
		t.Errorf("errors.As(*CrashError) = %+v, want rank 2 at 5.25", gotCrash)
	}
	var gotPeer *PeerCrashError
	if !errors.As(wrapped, &gotPeer) || gotPeer.Peer != 2 {
		t.Errorf("errors.As(*PeerCrashError) = %+v, want peer 2", gotPeer)
	}
	var gotStorm *DropStormError
	if !errors.As(wrapped, &gotStorm) || gotStorm.Attempts != 8 {
		t.Errorf("errors.As(*DropStormError) = %+v, want 8 attempts", gotStorm)
	}

	// errors.Is matches by value (same fault), not pointer identity.
	if !errors.Is(wrapped, &CrashError{Rank: 2, AtMS: 5.25}) {
		t.Error("errors.Is misses an equal-valued CrashError")
	}
	if errors.Is(wrapped, &CrashError{Rank: 2, AtMS: 5.26}) {
		t.Error("errors.Is matches a CrashError at a different instant")
	}
	if !errors.Is(wrapped, &PeerCrashError{Rank: 0, Peer: 2, AtMS: 6.5}) {
		t.Error("errors.Is misses an equal-valued PeerCrashError")
	}
	if errors.Is(wrapped, &PeerCrashError{Rank: 0, Peer: 1, AtMS: 6.5}) {
		t.Error("errors.Is matches a PeerCrashError with the wrong peer")
	}
	if !errors.Is(wrapped, &DropStormError{Rank: 1, Peer: 3, Attempts: 8, AtMS: 9.75}) {
		t.Error("errors.Is misses an equal-valued DropStormError")
	}
	if errors.Is(wrapped, &DropStormError{Rank: 1, Peer: 3, Attempts: 7, AtMS: 9.75}) {
		t.Error("errors.Is matches a DropStormError with a different attempt count")
	}
}

// TestFaultErrorsUnwrapFromRun exercises the same contract on a real
// joined Run error rather than a hand-built tree.
func TestFaultErrorsUnwrapFromRun(t *testing.T) {
	cl := testCluster(t, 100, 100, 100)
	m := testModel(t)
	inj := &testInjector{crashAt: map[int]float64{1: 1.0}, maxAttempts: 1}
	_, err := Run(context.Background(), cl, m, Options{Faults: inj}, func(c *Comm) error {
		c.Compute(1e6) // 10 ms: rank 1 dies mid-compute at 1 ms
		if c.Rank() == 0 {
			c.Recv(1, 5) // depends on the dead rank
		} else if c.Rank() == 1 {
			c.Send(0, 5, []float64{1})
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("want a fault error from the crashed run")
	}
	var crash *CrashError
	if !errors.As(err, &crash) || crash.Rank != 1 || crash.AtMS != 1.0 {
		t.Errorf("errors.As(*CrashError) through Run wrapping = %+v, want rank 1 at 1.0", crash)
	}
	if !errors.Is(err, &CrashError{Rank: 1, AtMS: 1.0}) {
		t.Error("errors.Is misses the run's CrashError by value")
	}
	var peer *PeerCrashError
	if !errors.As(err, &peer) || peer.Peer != 1 {
		t.Errorf("errors.As(*PeerCrashError) through Run wrapping = %+v, want peer 1", peer)
	}
	if !errors.Is(err, &PeerCrashError{Rank: peer.Rank, Peer: peer.Peer, AtMS: peer.AtMS}) {
		t.Error("errors.Is misses the run's PeerCrashError by value")
	}
}

// TestDropStormUnwrapFromRun covers the third type end-to-end: a link
// that drops everything exhausts the retry budget.
func TestDropStormUnwrapFromRun(t *testing.T) {
	cl := testCluster(t, 100, 100)
	m := testModel(t)
	inj := &testInjector{
		drop:        func(from, to, seq int) bool { return true },
		maxAttempts: 3,
	}
	_, err := Run(context.Background(), cl, m, Options{Faults: inj}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{1})
		} else {
			c.Recv(0, 5)
		}
		return nil
	})
	if err == nil {
		t.Fatal("want a drop-storm error")
	}
	var storm *DropStormError
	if !errors.As(err, &storm) || storm.Rank != 0 || storm.Attempts != 3 {
		t.Errorf("errors.As(*DropStormError) = %+v, want rank 0 after 3 attempts", storm)
	}
	if !errors.Is(err, &DropStormError{Rank: storm.Rank, Peer: storm.Peer, Attempts: storm.Attempts, AtMS: storm.AtMS}) {
		t.Error("errors.Is misses the run's DropStormError by value")
	}
}
