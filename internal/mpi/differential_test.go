package mpi

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/simnet"
)

// Randomized differential testing: generate random (but deterministic,
// seeded) parallel programs and require the live, DES and symbolic
// engines to produce bit-identical virtual times, message counts and
// accounting. This covers interleavings of primitives no hand-written test
// enumerates. Equality is exact (==, no tolerance): all charging policy
// lives in the shared runtime, the DES transport waits on absolute
// deadlines (DelayUntil), and the other two assign clocks directly, so any
// ulp of divergence is a real engine bug.

// diffEngines is the full uncontended engine matrix for differential runs.
var diffEngines = []Engine{EngineLive, EngineDES, EngineSymbolic}

// runAllEngines executes prog on every uncontended engine with opts (Engine
// overridden) and returns the results in diffEngines order, failing the
// test on any error.
func runAllEngines(t *testing.T, cl *cluster.Cluster, m simnet.CostModel, opts Options, prog Program, label string) []Result {
	t.Helper()
	results := make([]Result, len(diffEngines))
	for i, eng := range diffEngines {
		o := opts
		o.Engine = eng
		res, err := Run(context.Background(), cl, m, o, prog)
		if err != nil {
			t.Fatalf("%s %v: %v", label, eng, err)
		}
		results[i] = res
	}
	return results
}

// requireBitIdentical asserts res is exactly equal to base in every
// engine-visible dimension.
func requireBitIdentical(t *testing.T, label string, base, res Result, baseEng, eng Engine) {
	t.Helper()
	if base.Messages != res.Messages || base.BytesMoved != res.BytesMoved {
		t.Errorf("%s: traffic differs: %v %d/%d vs %v %d/%d",
			label, baseEng, base.Messages, base.BytesMoved, eng, res.Messages, res.BytesMoved)
	}
	if base.TimeMS != res.TimeMS {
		t.Errorf("%s: makespan differs: %v %v vs %v %v", label, baseEng, base.TimeMS, eng, res.TimeMS)
	}
	for r := range base.RankClocks {
		if base.RankClocks[r] != res.RankClocks[r] {
			t.Errorf("%s rank %d: clocks differ: %v %v vs %v %v",
				label, r, baseEng, base.RankClocks[r], eng, res.RankClocks[r])
		}
		if base.ComputeMS[r] != res.ComputeMS[r] {
			t.Errorf("%s rank %d: compute differs: %v %v vs %v %v",
				label, r, baseEng, base.ComputeMS[r], eng, res.ComputeMS[r])
		}
		if base.CommMS[r] != res.CommMS[r] {
			t.Errorf("%s rank %d: comm differs: %v %v vs %v %v",
				label, r, baseEng, base.CommMS[r], eng, res.CommMS[r])
		}
	}
}

// randomProgram builds a deterministic program from seed: a sequence of
// collective/point-to-point/compute steps that is structurally identical
// on every rank (so it cannot deadlock) but exercises rank-dependent
// paths.
func randomProgram(seed int64, steps int) Program {
	return func(c *Comm) error {
		rng := rand.New(rand.NewSource(seed)) // same stream on every rank
		p := c.Size()
		for s := 0; s < steps; s++ {
			switch rng.Intn(7) {
			case 0:
				flops := float64(rng.Intn(100000)) * float64(c.Rank()+1)
				c.Compute(flops)
			case 1:
				root := rng.Intn(p)
				size := 1 + rng.Intn(300)
				var in []float64
				if c.Rank() == root {
					in = make([]float64, size)
					for i := range in {
						in[i] = float64(s*size + i)
					}
				}
				c.Bcast(root, in)
			case 2:
				c.Barrier()
			case 3:
				// Ring shift with random payload size.
				size := 1 + rng.Intn(200)
				to := (c.Rank() + 1) % p
				from := (c.Rank() + p - 1) % p
				if rng.Intn(2) == 0 {
					c.Send(to, s, make([]float64, size))
				} else {
					c.ISend(to, s, make([]float64, size))
				}
				c.Recv(from, s)
			case 4:
				root := rng.Intn(p)
				c.Gatherv(root, make([]float64, 1+rng.Intn(50)))
			case 5:
				c.Allreduce(float64(c.Rank()), OpSum)
			case 6:
				root := rng.Intn(p)
				// Every rank must consume the same rng draws or the shared
				// stream desynchronizes and ranks disagree on later steps.
				sizes := make([]int, p)
				for i := range sizes {
					sizes[i] = 1 + rng.Intn(40)
				}
				var parts [][]float64
				if c.Rank() == root {
					parts = make([][]float64, p)
					for i := range parts {
						parts[i] = make([]float64, sizes[i])
					}
				}
				c.Scatterv(root, parts)
			}
		}
		return nil
	}
}

func TestDifferentialEngines(t *testing.T) {
	cl := testCluster(t, 37.2, 42.1, 89.5, 89.5, 42.1, 60)
	m := testModel(t)
	for seed := int64(0); seed < 25; seed++ {
		prog := randomProgram(seed, 30)
		results := runAllEngines(t, cl, m, Options{}, prog, fmt.Sprintf("seed %d", seed))
		for i := 1; i < len(results); i++ {
			requireBitIdentical(t, fmt.Sprintf("seed %d", seed),
				results[0], results[i], diffEngines[0], diffEngines[i])
		}
	}
}

func TestDifferentialEnginesWithDrops(t *testing.T) {
	// Fault-injected differential pass: the same lossy link plan must
	// yield identical retransmission traffic and virtual times on every
	// engine, for random programs no engine was tuned to.
	cl := testCluster(t, 37.2, 42.1, 89.5, 60)
	m := testModel(t)
	for seed := int64(0); seed < 15; seed++ {
		prog := randomProgram(seed+500, 25)
		inj := planInjector(t, faults.Plan{Seed: seed, DropProb: 0.1, RetryTimeoutMS: 0.5}, cl.Size())
		results := runAllEngines(t, cl, m, Options{Faults: inj}, prog, fmt.Sprintf("drops seed %d", seed))
		for i := 1; i < len(results); i++ {
			requireBitIdentical(t, fmt.Sprintf("drops seed %d", seed),
				results[0], results[i], diffEngines[0], diffEngines[i])
		}
	}
}

func TestDifferentialEnginesWithCrashes(t *testing.T) {
	// Crash a rank mid-run and require every engine to agree on who died,
	// when, who cascaded, and every survivor's final clock.
	cl := testCluster(t, 37.2, 42.1, 89.5, 60)
	m := testModel(t)
	for seed := int64(0); seed < 15; seed++ {
		prog := randomProgram(seed+900, 25)
		base, err := Run(context.Background(), cl, m, Options{Engine: EngineLive}, prog)
		if err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		victim := int(seed) % cl.Size()
		inj := &testInjector{
			crashAt:     map[int]float64{victim: base.TimeMS * 0.4},
			maxAttempts: 1,
		}
		var firstRes Result
		var firstOut FaultOutcome
		for i, eng := range diffEngines {
			res, errRun := Run(context.Background(), cl, m, Options{Engine: eng, Faults: inj}, prog)
			out, ok := ClassifyFaults(cl.Size(), errRun)
			if !ok {
				t.Fatalf("seed %d %v: non-fault failure: %v", seed, eng, errRun)
			}
			if len(out.Crashed) != 1 {
				t.Errorf("seed %d %v: want exactly one crash, got %+v", seed, eng, out)
			}
			if i == 0 {
				firstRes, firstOut = res, out
				continue
			}
			if fmt.Sprint(firstOut.Crashed) != fmt.Sprint(out.Crashed) ||
				fmt.Sprint(firstOut.Aborted) != fmt.Sprint(out.Aborted) {
				t.Errorf("seed %d: fault outcomes differ:\n %v %+v\n %v %+v",
					seed, diffEngines[0], firstOut, eng, out)
			}
			if firstRes.Messages != res.Messages || firstRes.BytesMoved != res.BytesMoved {
				t.Errorf("seed %d %v: post-crash traffic differs: %d/%d vs %d/%d",
					seed, eng, firstRes.Messages, firstRes.BytesMoved, res.Messages, res.BytesMoved)
			}
			for r := range firstRes.RankClocks {
				if firstRes.RankClocks[r] != res.RankClocks[r] {
					t.Errorf("seed %d rank %d: post-crash clocks differ: %v %v vs %v %v",
						seed, r, diffEngines[0], firstRes.RankClocks[r], eng, res.RankClocks[r])
				}
			}
		}
	}
}

func TestDifferentialRunsAreStable(t *testing.T) {
	// The same random program re-run on the same engine is bit-stable.
	cl := testCluster(t, 50, 70, 90, 40)
	m := testModel(t)
	prog := randomProgram(7, 40)
	for _, eng := range diffEngines {
		var first Result
		for i := 0; i < 3; i++ {
			res, err := Run(context.Background(), cl, m, Options{Engine: eng}, prog)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = res
				continue
			}
			for r := range res.RankClocks {
				if res.RankClocks[r] != first.RankClocks[r] {
					t.Fatalf("%v iteration %d rank %d: clock drifted", eng, i, r)
				}
			}
		}
	}
}
