package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	var computed atomic.Int64
	const callers = 16
	var wg sync.WaitGroup
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", func() (any, error) {
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
	c := NewCache()
	for _, k := range []string{"a", "b", "a", "b", "a"} {
		k := k
		if _, err := c.Do(context.Background(), k, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 2 misses, 3 hits", st)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	var computed atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := c.Do(context.Background(), "k", func() (any, error) {
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
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, "k", func() (any, error) { return 1, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want canceled", err)
	}
	// A canceled waiter must not disturb the in-flight computation.
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.Do(context.Background(), "slow", func() (any, error) {
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
		_, err := c.Do(wctx, "slow", func() (any, error) { return nil, errors.New("must not run") })
		waiting <- err
	}()
	wcancel()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter err = %v, want canceled", err)
	}
	close(release)
	<-done
	v, err := c.Do(context.Background(), "slow", func() (any, error) { return nil, errors.New("must not run") })
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

func TestCacheMaxEntriesEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewCache()
	c.SetMaxEntries(2)
	computed := map[string]int{}
	do := func(k string) {
		t.Helper()
		if _, err := c.Do(context.Background(), k, func() (any, error) {
			computed[k]++
			return k, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	do("a")
	do("b")
	do("a") // hit: a becomes the most recently used
	do("c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	do("a")
	do("b")
	if computed["a"] != 1 || computed["b"] != 2 || computed["c"] != 1 {
		t.Errorf("computations = %v, want a once, b twice (evicted), c once", computed)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 2 hits, 4 misses", st)
	}
}

func TestCacheMaxEntriesKeepsInFlightSingleFlight(t *testing.T) {
	// A bounded cache must never evict a computation in flight: callers
	// arriving while other keys churn through the bound still share it.
	c := NewCache()
	c.SetMaxEntries(1)
	release := make(chan struct{})
	var computed atomic.Int64
	slow := func() (any, error) {
		computed.Add(1)
		<-release
		return 42, nil
	}
	const callers = 16
	var wg sync.WaitGroup
	vals := make([]any, callers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := c.Do(context.Background(), "k", slow)
		if err != nil {
			t.Error(err)
		}
		vals[0] = v
	}()
	for c.Len() == 0 {
	}
	for i := 0; i < 10; i++ {
		k := string(rune('a' + i))
		if _, err := c.Do(context.Background(), k, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want the in-flight key plus one completed entry", c.Len())
	}
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", slow)
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
		if v.(int) != 42 {
			t.Errorf("caller %d got %v", i, v)
		}
	}
}
