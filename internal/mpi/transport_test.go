package mpi

import (
	"context"
	"testing"
)

// Tests of the receiving side that the three transports share, and of
// what a message costs on the DES transport.

func TestMailboxProtocol(t *testing.T) {
	boxes := newMailboxes(3)
	b := &boxes[1]
	mustTake := func(from, tag int) {
		t.Helper()
		if m, ok, wait := b.take(from); !ok || wait || m.Tag != tag {
			t.Fatalf("take(%d) = tag %d, ok %v, wait %v; want tag %d", from, m.Tag, ok, wait, tag)
		}
	}

	// An empty stream from a live source: the owner must wait on it, and
	// only a post on that stream wakes it, once.
	if _, _, wait := b.take(0); !wait {
		t.Fatal("take on an empty stream did not wait")
	}
	if b.post(2, Message{Tag: 2}) {
		t.Error("a post from another source woke the owner")
	}
	if !b.post(0, Message{Tag: 1}) {
		t.Error("a post on the awaited stream did not wake the owner")
	}
	if b.post(0, Message{Tag: 3}) {
		t.Error("a second post woke the owner again")
	}
	mustTake(0, 1) // FIFO per source
	mustTake(0, 3)
	mustTake(2, 2)

	// A dead source's messages drain before its death shows.
	b.post(0, Message{Tag: 4})
	if b.markDead(0) {
		t.Error("a death woke an owner that was not waiting")
	}
	mustTake(0, 4)
	if _, ok, wait := b.take(0); ok || wait {
		t.Errorf("take from a drained dead source: ok %v, wait %v; want neither", ok, wait)
	}
	// A death wakes an owner waiting on that source.
	if _, _, wait := b.take(2); !wait {
		t.Fatal("take on an empty stream did not wait")
	}
	if !b.markDead(2) {
		t.Error("a death did not wake the owner waiting on it")
	}

	// The barrier token: an early unpark is kept for the next park, and a
	// late one wakes the parked owner, whose next park consumes it.
	if b.unpark() {
		t.Error("an unpark woke an owner that was not parked")
	}
	if b.park() {
		t.Error("park waited with a token pending")
	}
	if !b.park() {
		t.Fatal("park without a token did not wait")
	}
	if !b.unpark() {
		t.Error("an unpark did not wake the parked owner")
	}
	if b.park() {
		t.Error("park after the wake did not consume the token")
	}

	// interrupt wakes a blocked owner once, and an idle one not at all.
	if b.interrupt() {
		t.Error("interrupt woke an idle owner")
	}
	b.park()
	if !b.interrupt() || b.interrupt() {
		t.Error("interrupt did not wake a parked owner exactly once")
	}
	if b.unpark() {
		t.Error("an unpark woke an owner already interrupted")
	}

	// Posts to a dead owner are dropped.
	b.markDead(1)
	if b.post(0, Message{Tag: 5}) || !b.streams[0].empty() {
		t.Error("a post to a dead owner was kept")
	}
}

// On the DES engine a message costs one allocation, its delivery
// callback: the mailbox stores the Message by value, and a Blank payload
// passes by reference.
func TestDESMessageAllocatesOneCallback(t *testing.T) {
	cl := testCluster(t, 50, 50)
	m := testModel(t)
	payload := Blank(16)
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(context.Background(), cl, m, Options{Engine: EngineDES}, func(c *Comm) error {
				for i := 0; i < rounds; i++ {
					if c.Rank() == 0 {
						c.Send(1, 0, payload)
						c.Recv(1, 0)
					} else {
						c.Recv(0, 0)
						c.Send(0, 0, payload)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Two messages a round; the slack is for the odd allocation the race
	// detector makes of its own.
	const rounds = 200
	if perMsg := (allocs(2*rounds) - allocs(rounds)) / (2 * rounds); perMsg > 1.05 {
		t.Errorf("a DES message with a Blank payload makes %.3f allocations, want 1", perMsg)
	}
}
