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
				_, err := Run(context.Background(), cl, m, e.opts, func(c *Comm) error {
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
	runWith := func(f func(c *Comm)) float64 {
		res, err := Run(context.Background(), cl, m, Options{}, func(c *Comm) error {
			f(c)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeMS
	}
	linear := runWith(func(c *Comm) {
		var in []float64
		if c.Rank() == 0 {
			in = payload
		}
		BcastLinear(c, 0, 1, in)
	})
	tree := runWith(func(c *Comm) {
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

func TestCollectivesEnginesAgree(t *testing.T) {
	m := testModel(t)
	cl := testCluster(t, 37.2, 42.1, 89.5, 89.5, 42.1)
	prog := func(c *Comm) error {
		var in []float64
		if c.Rank() == 1 {
			in = []float64{1, 2, 3}
		}
		BcastTree(c, 1, 1, in)
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

func ExampleBcastTree() {
	// Broadcast from rank 0 over four equal nodes: a binomial tree needs
	// exactly p-1 point-to-point messages.
	nodes := make([]cluster.Node, 4)
	for i := range nodes {
		nodes[i] = cluster.Node{Name: fmt.Sprintf("n%d", i), Class: "X", SpeedMflops: 50}
	}
	cl, _ := cluster.New("example", nodes...)
	model, _ := simnet.NewParamModel("example", simnet.Sunwulf100())
	res, _ := Run(context.Background(), cl, model, Options{}, func(c *Comm) error {
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
