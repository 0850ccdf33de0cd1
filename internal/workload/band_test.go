package workload

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/mpi"
)

// TestBandTopsUpShortGridBlocks runs the grid workloads at sizes where
// the proportional split leaves a rank no row although every rank could
// own one: 10 interior rows on the p = 8 rung, and 7 interior rows on
// the six survivors of the p = 7 rung at N = 9. The short blocks are
// topped up to one row, so both complete, bitwise equal to the
// sequential reference and to the undisturbed run.
func TestBandTopsUpShortGridBlocks(t *testing.T) {
	m := testModel(t)
	ctx := context.Background()
	type runFn func(*cluster.Cluster, mpi.Options, Spec, *RecoveryConfig) (Outcome, mpi.RecoveredResult, []float64, error)
	for _, tc := range []struct {
		name string
		run  runFn
		seq  func(n int, seed int64) ([]float64, error)
	}{
		{"jacobi", func(cl *cluster.Cluster, o mpi.Options, s Spec, r *RecoveryConfig) (Outcome, mpi.RecoveredResult, []float64, error) {
			return Jacobi{}.run(ctx, cl, m, o, s, r)
		}, func(n int, seed int64) ([]float64, error) { return jacobiSequential(n, JacobiIters, seed) }},
		{"mg", func(cl *cluster.Cluster, o mpi.Options, s Spec, r *RecoveryConfig) (Outcome, mpi.RecoveredResult, []float64, error) {
			return MG{}.run(ctx, cl, m, o, s, r)
		}, func(n int, seed int64) ([]float64, error) { return mgSequential(n, MGIters, seed) }},
		{"cg", func(cl *cluster.Cluster, o mpi.Options, s Spec, r *RecoveryConfig) (Outcome, mpi.RecoveredResult, []float64, error) {
			return CG{}.run(ctx, cl, m, o, s, r)
		}, func(n int, seed int64) ([]float64, error) { return cgSequential(n, CGIters, seed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, e := range []mpi.Engine{mpi.EngineLive, mpi.EngineDES, mpi.EngineSymbolic} {
				cl, err := cluster.MMConfig(8)
				if err != nil {
					t.Fatal(err)
				}
				spec := Spec{N: 12, Seed: 3}
				_, _, got, err := tc.run(cl, mpi.Options{Engine: e}, spec, nil)
				if err != nil {
					t.Fatalf("%v: N=12 on p=8: %v", e, err)
				}
				ref, err := tc.seq(spec.N, spec.Seed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%v: N=12 on p=8 differs from the sequential reference", e)
				}

				const p = 7
				if cl, err = cluster.MMConfig(p); err != nil {
					t.Fatal(err)
				}
				spec = Spec{N: 9, Seed: 5}
				base, _, _, err := tc.run(cl, mpi.Options{Engine: e}, spec, nil)
				if err != nil {
					t.Fatalf("%v: N=9 on p=7: %v", e, err)
				}
				crash := mpi.Options{Engine: e, Faults: crashInjector{at: map[int]float64{p - 1: 0.5 * base.Stats.TimeMS}}}
				out, rec, _, err := tc.run(cl, crash, spec, &RecoveryConfig{IntervalSteps: 5})
				if err != nil {
					t.Fatalf("%v: N=9 on p=7 losing rank %d: %v", e, p-1, err)
				}
				if !rec.Recovered {
					t.Fatalf("%v: the crash did not trigger recovery: %+v", e, rec)
				}
				if out.Check != base.Check {
					t.Errorf("%v: recovered Check %#x, undisturbed %#x", e, out.Check, base.Check)
				}
			}
		})
	}
}

// FuzzBandRanges checks the band split on random sizes, rank counts,
// floors and speeds, through dist.HetBlock or a dist.Pinned survivor
// subset: with at least floor rows per rank the blocks are contiguous in
// rank order, cover every row and hold at least floor rows each, and a
// split that already met the floor is used as the strategy made it;
// with fewer rows the split is an error. A zero speed seed takes the
// speeds of the p-node rung (p ≥ 2) of the band workloads' ladder.
func FuzzBandRanges(f *testing.F) {
	f.Add(uint16(10), uint8(8), uint8(1), uint64(0), false) // the grids at n = 12, p = 8
	f.Add(uint16(19), uint8(7), uint8(2), uint64(0), false) // spmv at n = 19, p = 7
	f.Add(uint16(40), uint8(5), uint8(3), uint64(99), true)
	f.Add(uint16(3), uint8(4), uint8(1), uint64(7), false)
	f.Fuzz(func(t *testing.T, countRaw uint16, pRaw uint8, floorRaw uint8, seed uint64, pinned bool) {
		count := int(countRaw % 301)
		p := 1 + int(pRaw%16)
		floor := 1 + int(floorRaw%3)
		speeds := fuzzSpeeds(seed, p)
		if seed == 0 && p >= 2 {
			cl, err := cluster.MMConfig(p)
			if err != nil {
				t.Fatal(err)
			}
			speeds = cl.Speeds()
		}
		var st dist.Strategy = dist.HetBlock{}
		if pinned {
			// Nominal speeds for two more nodes than survive; the seed
			// picks the two distinct nodes that are gone.
			nominal := fuzzSpeeds(seed^0x5bd1e995, p+2)
			a := int(seed % uint64(p+2))
			b := (a + 1 + int((seed>>8)%uint64(p+1))) % (p + 2)
			survivors := make([]int, 0, p)
			for r := range nominal {
				if r != a && r != b {
					survivors = append(survivors, r)
				}
			}
			st = survivorStrategy(dist.Pinned{Speeds: nominal, Inner: dist.HetBlock{}}, survivors)
		}

		ranges, err := bandRanges(count, floor, st, speeds)
		if count < floor*p {
			if err == nil {
				t.Fatalf("count %d < floor %d × p %d accepted: %v", count, floor, p, ranges)
			}
			return
		}
		if err != nil {
			t.Fatalf("count %d, floor %d, p %d: %v", count, floor, p, err)
		}
		if len(ranges) != p {
			t.Fatalf("%d ranges for %d ranks", len(ranges), p)
		}
		next := 0
		for r, rg := range ranges {
			if rg[0] != next {
				t.Fatalf("rank %d block %v does not start at row %d: %v", r, rg, next, ranges)
			}
			if rg[1]-rg[0] < floor {
				t.Fatalf("rank %d owns %d rows, floor %d: %v", r, rg[1]-rg[0], floor, ranges)
			}
			next = rg[1]
		}
		if next != count {
			t.Fatalf("blocks cover [0, %d), want [0, %d): %v", next, count, ranges)
		}
		asn, err := st.Assign(count, speeds)
		if err != nil {
			t.Fatal(err)
		}
		met := true
		for _, c := range asn.Counts {
			met = met && c >= floor
		}
		if want := dist.BlockRanges(asn.Counts); met && !reflect.DeepEqual(ranges, want) {
			t.Fatalf("a split meeting the floor changed: %v, strategy made %v", ranges, want)
		}
	})
}

// fuzzSpeeds derives n positive speeds in [1, 101) from seed.
func fuzzSpeeds(seed uint64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = 1 + float64(seed>>11)/float64(1<<53)*100
	}
	return out
}
