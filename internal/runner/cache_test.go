package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(nil)
	var computed atomic.Int64
	const callers = 16
	var wg sync.WaitGroup
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.do(context.Background(), "k", func() (any, error) {
				computed.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	for i, v := range vals {
		if v.(int) != 42 {
			t.Errorf("caller %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss, %d hits", st, callers-1)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheDistinctKeys(t *testing.T) {
	c := NewCache(nil)
	for _, k := range []string{"a", "b", "a", "b", "a"} {
		k := k
		if _, err := c.do(context.Background(), k, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 2 misses, 3 hits", st)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache(nil)
	boom := errors.New("boom")
	var computed atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := c.do(context.Background(), "k", func() (any, error) {
			computed.Add(1)
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("call %d: err = %v", i, err)
		}
	}
	if n := computed.Load(); n != 1 {
		t.Errorf("computed %d times, want 1 (errors are cached)", n)
	}
}

func TestCacheCanceledContext(t *testing.T) {
	c := NewCache(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.do(ctx, "k", func() (any, error) { return 1, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want canceled", err)
	}
	// A canceled waiter must not disturb the in-flight computation.
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.do(context.Background(), "slow", func() (any, error) {
			<-release
			return "v", nil
		}); err != nil {
			t.Error(err)
		}
	}()
	wctx, wcancel := context.WithCancel(context.Background())
	waiting := make(chan error, 1)
	go func() {
		// Wait until the slow entry exists, then wait on it with a
		// context we cancel.
		for c.Len() == 0 {
		}
		_, err := c.do(wctx, "slow", func() (any, error) { return nil, errors.New("must not run") })
		waiting <- err
	}()
	wcancel()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter err = %v, want canceled", err)
	}
	close(release)
	<-done
	v, err := c.do(context.Background(), "slow", func() (any, error) { return nil, errors.New("must not run") })
	if err != nil || v.(string) != "v" {
		t.Errorf("post-completion Do = %v, %v", v, err)
	}
}

func TestSignatureCanonicalAndStable(t *testing.T) {
	a := Sig("run").Add("alg", "ge").Add("n", 400).Add("target", 0.3).Key()
	b := Sig("run").Add("alg", "ge").Add("n", 400).Add("target", 0.3).Key()
	if a != b {
		t.Error("identical signatures hash differently")
	}
	// Field order, values and string boundaries must all distinguish.
	distinct := []string{
		Sig("run").Add("alg", "ge").Add("n", 400).Key(),
		Sig("run").Add("n", 400).Add("alg", "ge").Key(),
		Sig("run").Add("alg", "ge").Add("n", 401).Key(),
		Sig("run").Add("alg", "gem").Add("n", 400).Key(),
		Sig("chain").Add("alg", "ge").Add("n", 400).Key(),
		Sig("run").Add("alg", "ge", "x").Add("n", 400).Key(),
	}
	seen := map[string]int{}
	for i, k := range distinct {
		if j, ok := seen[k]; ok {
			t.Errorf("signatures %d and %d collide", i, j)
		}
		seen[k] = i
	}
	// Floats render shortest-round-trip, not truncated.
	s1 := Sig("x").Add("v", 0.1).String()
	s2 := Sig("x").Add("v", 0.1000000001).String()
	if s1 == s2 {
		t.Error("close floats render identically")
	}
}

// TestCacheMaxEntriesEvictsLeastRecentlyUsed checks the memory bound of a
// disk-backed cache: it keeps the memEntries most recently used completed
// entries (a hit refreshes one), and an evicted key comes back from disk
// without recomputation. A memory-only cache keeps every entry.
func TestCacheMaxEntriesEvictsLeastRecentlyUsed(t *testing.T) {
	disk, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	computed := map[string]int{}
	do := func(c *Cache, k string) {
		t.Helper()
		if _, err := DoPersist(context.Background(), c, k, JSONCodec[string](), func() (string, error) {
			computed[k]++
			return k, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	c := NewCache(disk)
	for i := 0; i < memEntries; i++ {
		do(c, key(i))
	}
	do(c, key(0))          // hit: k0 becomes the most recently used
	do(c, key(memEntries)) // evicts k1
	if c.Len() != memEntries {
		t.Fatalf("len = %d, want %d", c.Len(), memEntries)
	}
	before := c.Stats()
	do(c, key(0))
	do(c, key(1))
	after := c.Stats()
	if after.Hits != before.Hits+1 || after.DiskHits != before.DiskHits+1 || after.DiskMisses != before.DiskMisses {
		t.Errorf("want k0 a memory hit and evicted k1 a disk hit: stats %+v -> %+v", before, after)
	}
	for k, n := range computed {
		if n != 1 {
			t.Errorf("%s computed %d times, want once", k, n)
		}
	}

	mem := NewCache(nil)
	for i := 0; i < memEntries+10; i++ {
		do(mem, key(i))
	}
	if mem.Len() != memEntries+10 {
		t.Errorf("memory-only len = %d, want every entry (%d)", mem.Len(), memEntries+10)
	}
}

func TestCacheMaxEntriesKeepsInFlightSingleFlight(t *testing.T) {
	// A bounded cache must never evict a computation in flight: callers
	// arriving while other keys churn through the bound still share it.
	disk, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(disk)
	release := make(chan struct{})
	var computed atomic.Int64
	slow := func() (int, error) {
		computed.Add(1)
		<-release
		return 42, nil
	}
	const callers = 16
	var wg sync.WaitGroup
	vals := make([]int, callers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := DoPersist(context.Background(), c, "k", JSONCodec[int](), slow)
		if err != nil {
			t.Error(err)
		}
		vals[0] = v
	}()
	for c.Len() == 0 {
	}
	for i := 0; i < memEntries+10; i++ {
		if _, err := DoPersist(context.Background(), c, fmt.Sprint(i), JSONCodec[int](), func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != memEntries+1 {
		t.Fatalf("len = %d, want the in-flight key plus %d completed entries", c.Len(), memEntries)
	}
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := DoPersist(context.Background(), c, "k", JSONCodec[int](), slow)
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
	for i, v := range vals {
		if v != 42 {
			t.Errorf("caller %d got %v", i, v)
		}
	}
}

// TestCacheCanceledComputationIsNoResult checks that a computation which
// fails after its caller's context ended is dropped, not memoized: a
// later caller with a live context computes again, and so does a caller
// that was waiting on the canceled one.
func TestCacheCanceledComputationIsNoResult(t *testing.T) {
	c := NewCache(nil)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := c.do(ctx, "k", func() (any, error) {
		cancel()
		return nil, ctx.Err()
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want canceled", err)
	}
	if c.Len() != 0 {
		t.Errorf("canceled computation left %d entries in the table", c.Len())
	}
	v, err := c.do(context.Background(), "k", func() (any, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Errorf("later live call = %v, %v; want a recomputed 7", v, err)
	}

	lctx, lcancel := context.WithCancel(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := c.do(lctx, "w", func() (any, error) {
			close(started)
			<-release
			return nil, lctx.Err()
		})
		leader <- err
	}()
	<-started
	wctx := &doneSignal{Context: context.Background(), called: make(chan struct{})}
	waiter := make(chan any, 1)
	go func() {
		v, err := c.do(wctx, "w", func() (any, error) { return "recomputed", nil })
		if err != nil {
			v = err
		}
		waiter <- v
	}()
	<-wctx.called // the waiter is blocked on the leader's computation
	lcancel()
	close(release)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want canceled", err)
	}
	if v := <-waiter; v != "recomputed" {
		t.Errorf("live waiter got %v, want the recomputed value", v)
	}
	// The recomputed value is memoized like any other.
	v, err = c.do(context.Background(), "w", func() (any, error) { return nil, errors.New("must not run") })
	if err != nil || v != "recomputed" {
		t.Errorf("after recomputation do = %v, %v", v, err)
	}
}

// doneSignal is a context that closes called the first time its Done
// channel is asked for, which Cache.do does only to wait on another
// caller's computation.
type doneSignal struct {
	context.Context
	once   sync.Once
	called chan struct{}
}

func (d *doneSignal) Done() <-chan struct{} {
	d.once.Do(func() { close(d.called) })
	return d.Context.Done()
}
