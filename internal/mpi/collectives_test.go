package mpi

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

func uniformCluster(t *testing.T, p int) []float64 {
	t.Helper()
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 50
	}
	return speeds
}

func TestBcastAlgorithmsDeliver(t *testing.T) {
	m := testModel(t)
	payload := []float64{1, 2, 3, 4, 5}
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		cl := testCluster(t, uniformCluster(t, p)...)
		for root := 0; root < p; root += 2 {
			for _, e := range engines {
				got := make([][]float64, p)
				gotTree := make([][]float64, p)
				_, err := Run(context.Background(), cl, m, e.opts, func(c Comm) error {
					var in []float64
					if c.Rank() == root {
						in = payload
					}
					got[c.Rank()] = BcastLinear(c, root, 10, in)
					gotTree[c.Rank()] = BcastTree(c, root, 20, in)
					return nil
				})
				if err != nil {
					t.Fatalf("p=%d root=%d %s: %v", p, root, e.name, err)
				}
				for r := 0; r < p; r++ {
					for i, v := range payload {
						if got[r][i] != v || gotTree[r][i] != v {
							t.Fatalf("p=%d root=%d rank=%d: linear %v tree %v",
								p, root, r, got[r], gotTree[r])
						}
					}
				}
			}
		}
	}
}

func TestBcastTreeBeatsLinearAtScale(t *testing.T) {
	m := testModel(t)
	p := 16
	cl := testCluster(t, uniformCluster(t, p)...)
	payload := make([]float64, 2000)
	runWith := func(f func(c Comm)) float64 {
		res, err := Run(context.Background(), cl, m, Options{}, func(c Comm) error {
			f(c)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeMS
	}
	linear := runWith(func(c Comm) {
		var in []float64
		if c.Rank() == 0 {
			in = payload
		}
		BcastLinear(c, 0, 1, in)
	})
	tree := runWith(func(c Comm) {
		var in []float64
		if c.Rank() == 0 {
			in = payload
		}
		BcastTree(c, 0, 1, in)
	})
	// Linear: 15 sequential sends at the root; tree: 4 rounds.
	if tree >= linear/2 {
		t.Errorf("tree bcast %g should be well under half of linear %g", tree, linear)
	}
}

func TestAllreduceRingCorrect(t *testing.T) {
	m := testModel(t)
	for _, p := range []int{1, 2, 3, 4, 7} {
		cl := testCluster(t, uniformCluster(t, p)...)
		for _, n := range []int{1, 3, p, 17} {
			results := make([][]float64, p)
			_, err := Run(context.Background(), cl, m, Options{}, func(c Comm) error {
				vec := make([]float64, n)
				for i := range vec {
					vec[i] = float64(c.Rank()*100 + i)
				}
				results[c.Rank()] = AllreduceRing(c, 30, vec, OpSum)
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
			for i := 0; i < n; i++ {
				var want float64
				for r := 0; r < p; r++ {
					want += float64(r*100 + i)
				}
				for r := 0; r < p; r++ {
					if math.Abs(results[r][i]-want) > 1e-9 {
						t.Fatalf("p=%d n=%d rank=%d elem=%d: got %g want %g",
							p, n, r, i, results[r][i], want)
					}
				}
			}
		}
	}
}

func TestAllreduceRingBeatsNaiveForBigVectors(t *testing.T) {
	m := testModel(t)
	p := 8
	cl := testCluster(t, uniformCluster(t, p)...)
	const n = 20000
	runWith := func(f func(c Comm)) float64 {
		res, err := Run(context.Background(), cl, m, Options{}, func(c Comm) error {
			f(c)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeMS
	}
	naive := runWith(func(c Comm) {
		// Elementwise naive allreduce: gather the whole vector at root,
		// fold, broadcast back.
		vec := make([]float64, n)
		parts := c.Gatherv(0, vec)
		if c.Rank() == 0 {
			acc := make([]float64, n)
			for _, part := range parts {
				for i := range acc {
					acc[i] += part[i]
				}
			}
			c.Compute(float64(n * (len(parts) - 1)))
			vec = acc
		}
		c.Bcast(0, vec)
	})
	ring := runWith(func(c Comm) {
		vec := make([]float64, n)
		AllreduceRing(c, 1, vec, OpSum)
	})
	if ring >= naive {
		t.Errorf("ring allreduce %g should beat naive gather+bcast %g", ring, naive)
	}
}

func TestGatherTreeCorrect(t *testing.T) {
	m := testModel(t)
	for _, p := range []int{1, 2, 3, 5, 6, 8} {
		cl := testCluster(t, uniformCluster(t, p)...)
		for root := 0; root < p; root += 3 {
			var rootOut []float64
			nonRootNil := true
			_, err := Run(context.Background(), cl, m, Options{}, func(c Comm) error {
				mine := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
				out := GatherTree(c, root, 40, mine)
				if c.Rank() == root {
					rootOut = out
				} else if out != nil {
					nonRootNil = false
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
			if !nonRootNil {
				t.Fatalf("p=%d root=%d: non-root got data", p, root)
			}
			if len(rootOut) != 2*p {
				t.Fatalf("p=%d root=%d: out len %d", p, root, len(rootOut))
			}
			for r := 0; r < p; r++ {
				if rootOut[2*r] != float64(r) || rootOut[2*r+1] != float64(r*10) {
					t.Fatalf("p=%d root=%d: block %d = %v", p, root, r, rootOut[2*r:2*r+2])
				}
			}
		}
	}
}

func TestCollectivesEnginesAgree(t *testing.T) {
	m := testModel(t)
	cl := testCluster(t, 37.2, 42.1, 89.5, 89.5, 42.1)
	prog := func(c Comm) error {
		var in []float64
		if c.Rank() == 1 {
			in = []float64{1, 2, 3}
		}
		BcastTree(c, 1, 1, in)
		AllreduceRing(c, 10, []float64{float64(c.Rank()), 1}, OpSum)
		GatherTree(c, 0, 50, []float64{float64(c.Rank())})
		return nil
	}
	live, err := Run(context.Background(), cl, m, Options{Engine: EngineLive}, prog)
	if err != nil {
		t.Fatal(err)
	}
	des, err := Run(context.Background(), cl, m, Options{Engine: EngineDES}, prog)
	if err != nil {
		t.Fatal(err)
	}
	for r := range live.RankClocks {
		if math.Abs(live.RankClocks[r]-des.RankClocks[r]) > 1e-9 {
			t.Errorf("rank %d: live %g vs des %g", r, live.RankClocks[r], des.RankClocks[r])
		}
	}
}

func TestAllreduceRingNilOpPanicsIntoError(t *testing.T) {
	m := testModel(t)
	cl := testCluster(t, 50, 50)
	_, err := Run(context.Background(), cl, m, Options{}, func(c Comm) error {
		AllreduceRing(c, 1, []float64{1}, nil)
		return nil
	})
	if err == nil {
		t.Error("nil op accepted")
	}
}

func ExampleBcastTree() {
	// Broadcast from rank 0 over four equal nodes: a binomial tree needs
	// exactly p-1 point-to-point messages.
	nodes := make([]cluster.Node, 4)
	for i := range nodes {
		nodes[i] = cluster.Node{Name: fmt.Sprintf("n%d", i), Class: "X", SpeedMflops: 50}
	}
	cl, _ := cluster.New("example", nodes...)
	model, _ := simnet.NewParamModel("example", simnet.Sunwulf100())
	res, _ := Run(context.Background(), cl, model, Options{}, func(c Comm) error {
		var in []float64
		if c.Rank() == 0 {
			in = []float64{42}
		}
		BcastTree(c, 0, 7, in)
		return nil
	})
	fmt.Println(res.Messages)
	// Output: 3
}
