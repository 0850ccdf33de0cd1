package mpi

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func requireZero(t *testing.T, label string, data []float64) {
	t.Helper()
	for i, v := range data {
		if v != 0 {
			t.Fatalf("%s: element %d = %g, want 0", label, i, v)
		}
	}
}

// withBlankArray makes arr the shared array for the rest of the test, so
// a test that grows it starts from a known size and repeated runs do not
// keep doubling it.
func withBlankArray(t *testing.T, arr []float64) {
	saved := blank.Load()
	blank.Store(&arr)
	t.Cleanup(func() { blank.Store(saved) })
}

func TestBlankIsSharedReadOnlyView(t *testing.T) {
	withBlankArray(t, make([]float64, 16))
	b := Blank(8)
	if len(b) != 8 || cap(b) != 8 {
		t.Fatalf("Blank(8): len %d cap %d, want 8 and 8", len(b), cap(b))
	}
	requireZero(t, "Blank(8)", b)
	if again := Blank(8); &again[0] != &b[0] {
		t.Error("two Blanks of one length are different arrays")
	}
	if grown := append(b, 1); &grown[0] == &b[0] {
		t.Error("append wrote into the shared array")
	}
	requireZero(t, "Blank(8) after append", Blank(8))
	if len(Blank(0)) != 0 {
		t.Error("Blank(0) is not empty")
	}

	// share passes the current array's views by reference and copies
	// everything else.
	if s := share(b); &s[0] != &b[0] {
		t.Error("share copied a Blank")
	}
	if s := share(b[1:]); &s[0] == &b[1] {
		t.Error("share passed a sub-slice at an offset by reference")
	}
	data := []float64{1, 2}
	if s := share(data); &s[0] == &data[0] {
		t.Error("share passed real data by reference")
	}

	// Growing publishes a larger array; old views stay valid but are now
	// copied like any other data.
	old := Blank(4)
	big := Blank(17)
	if got := len(*blank.Load()); got != 32 {
		t.Errorf("grown array holds %d, want 32 (double 16)", got)
	}
	requireZero(t, "grown Blank", big)
	requireZero(t, "old view", old)
	if s := share(old); &s[0] == &old[0] {
		t.Error("share passed a view of a replaced array by reference")
	}

	// An empty array (a process whose only Blank so far is Blank(0))
	// recognizes nothing.
	withBlankArray(t, []float64{})
	if s := share(data); &s[0] == &data[0] {
		t.Error("share passed real data by reference")
	}
}

// TestBlankConcurrentGrowth takes and shares Blanks from several
// goroutines while the array grows under them (run it with -race).
func TestBlankConcurrentGrowth(t *testing.T) {
	withBlankArray(t, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := g + 1; n <= 1<<12; n += 8 + g {
				b := Blank(n)
				if len(b) != n || cap(b) != n || b[n-1] != 0 {
					t.Errorf("Blank(%d): len %d cap %d last %g", n, len(b), cap(b), b[n-1])
					return
				}
				if s := share(b); len(s) != n || s[0] != 0 {
					t.Errorf("share(Blank(%d)): len %d first %g", n, len(s), s[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// blankOps is one program per runtime hand-off site: each sends a
// Blank of length n and fails unless every receiver gets that very view.
var blankOps = []struct {
	name string
	msgs func(p int) int64 // messages a run counts
	prog func(n int) Program
}{
	{"Send", func(int) int64 { return 1 }, func(n int) Program {
		return func(c Comm) error {
			switch c.Rank() {
			case 0:
				c.Send(1, 7, Blank(n))
			case 1:
				return checkBlank(c.Recv(0, 7), n)
			}
			return nil
		}
	}},
	{"ISend", func(int) int64 { return 1 }, func(n int) Program {
		return func(c Comm) error {
			switch c.Rank() {
			case 0:
				c.ISend(1, 7, Blank(n))
			case 1:
				return checkBlank(c.Recv(0, 7), n)
			}
			return nil
		}
	}},
	{"Bcast", func(p int) int64 { return int64(p - 1) }, func(n int) Program {
		return func(c Comm) error {
			var data []float64
			if c.Rank() == 0 {
				data = Blank(n)
			}
			return checkBlank(c.Bcast(0, data), n)
		}
	}},
	{"Scatterv", func(p int) int64 { return int64(p - 1) }, func(n int) Program {
		return func(c Comm) error {
			var parts [][]float64
			if c.Rank() == 0 {
				parts = make([][]float64, c.Size())
				for r := range parts {
					parts[r] = Blank(n)
				}
			}
			return checkBlank(c.Scatterv(0, parts), n)
		}
	}},
	{"Gatherv", func(p int) int64 { return int64(p - 1) }, func(n int) Program {
		return func(c Comm) error {
			for _, part := range c.Gatherv(0, Blank(n)) {
				if err := checkBlank(part, n); err != nil {
					return err
				}
			}
			return nil
		}
	}},
	{"BcastLinear", func(p int) int64 { return int64(p - 1) }, func(n int) Program {
		return func(c Comm) error {
			return checkBlank(BcastLinear(c, 0, 7, Blank(n)), n)
		}
	}},
	{"BcastTree", func(p int) int64 { return int64(p - 1) }, func(n int) Program {
		return func(c Comm) error {
			return checkBlank(BcastTree(c, 0, 7, Blank(n)), n)
		}
	}},
}

// checkBlank reports whether a received payload is the Blank of length n.
func checkBlank(got []float64, n int) error {
	if len(got) != n {
		return fmt.Errorf("payload length %d, want %d", len(got), n)
	}
	if &got[0] != &Blank(n)[0] {
		return fmt.Errorf("payload of length %d is a copy, not the Blank", n)
	}
	return nil
}

// allocRun runs prog and returns its result and the fewest bytes any of
// three runs allocated.
func allocRun(t *testing.T, opts Options, prog Program) (Result, uint64) {
	t.Helper()
	cl := testCluster(t, 10, 20, 30, 40)
	m := testModel(t)
	var res Result
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Run(context.Background(), cl, m, opts, prog)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		res = r
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return res, best
}

func TestBlankPassesByReference(t *testing.T) {
	const small, large = 16, 1 << 20
	Blank(large) // grow once, outside the measurements
	for _, eng := range engines {
		for _, op := range blankOps {
			t.Run(eng.name+"/"+op.name, func(t *testing.T) {
				var allocs [2]uint64
				for i, n := range []int{small, large} {
					res, alloc := allocRun(t, eng.opts, op.prog(n))
					allocs[i] = alloc
					if want := op.msgs(4); res.Messages != want {
						t.Errorf("n=%d: %d messages, want %d", n, res.Messages, want)
					}
					if want := res.Messages * 8 * int64(n); res.BytesMoved != want {
						t.Errorf("n=%d: BytesMoved %d, want %d", n, res.BytesMoved, want)
					}
				}
				// One copied payload of the large run would be 8 MiB.
				if allocs[1] > allocs[0]+large {
					t.Errorf("allocation grows with payload length: %d B at n=%d, %d B at n=%d",
						allocs[0], small, allocs[1], large)
				}
			})
		}
	}
	requireZero(t, "shared array", Blank(large))
}

func TestBlankCollectivesReturnPrivateSlices(t *testing.T) {
	const n = 64
	plusOne := func(a, b float64) float64 { return a + b + 1 }
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			prog := func(c Comm) error {
				sum := AllreduceRing(c, 10, Blank(n), plusOne)
				if len(sum) != n || &sum[0] == &Blank(n)[0] {
					return fmt.Errorf("AllreduceRing returned the shared array")
				}
				if sum[0] == 0 {
					return fmt.Errorf("AllreduceRing did not fold")
				}
				sum[n-1] = 42
				all := GatherTree(c, 0, 20, Blank(n))
				if c.Rank() == 0 {
					if len(all) != c.Size()*n || &all[0] == &Blank(n)[0] {
						return fmt.Errorf("GatherTree returned the shared array")
					}
					all[0] = 42
				}
				return nil
			}
			if _, err := Run(context.Background(), testCluster(t, 10, 20, 30, 40), testModel(t), eng.opts, prog); err != nil {
				t.Fatal(err)
			}
			requireZero(t, "shared array", Blank(n))
		})
	}
}
