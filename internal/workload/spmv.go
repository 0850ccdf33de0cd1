package workload

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// SpMV is the fifth combination: an iterated sparse matrix–vector
// product x ← A·x where A is a seeded pentadiagonal band matrix
// (bandwidth 2) with rows normalised to sum 1, so the iteration is a
// bounded averaging process. The vector is row-partitioned over
// heterogeneous blocks; each iteration exchanges a *constant-size* halo
// — two scalars with each neighbour, independent of n — which makes
// SpMV the opposite comm-pattern extreme from the grid stencils: their
// halo is a full O(n) row, SpMV's is O(1) bytes. Overhead To(n) is
// therefore flat in n, and the combination sits at the most scalable
// extreme of the set, the counterpart to GE's broadcast-heavy worst
// case. As with mg, this file is the workload's entire integration:
// every consumer picks it up from the registry with no edits of its own.
type SpMV struct{}

func init() { Register(SpMV{}) }

// SpMVIters is the fixed number of band products per SpMV run.
const SpMVIters = 60

// DefaultSpMVSustained is the sustained fraction for the band product:
// SpMV is memory-bandwidth-bound (no reuse of matrix entries), the
// lowest arithmetic intensity in the workload set.
const DefaultSpMVSustained = 0.55

// spmvHalo is the stencil half-width: row i couples to i±1 and i±2.
const spmvHalo = 2

func (SpMV) Name() string { return "spmv" }
func (SpMV) About() string {
	return "banded sparse matrix-vector iteration, block rows, constant-size halo (registry extension)"
}
func (SpMV) DefaultTarget() float64 { return 0.3 }

func (SpMV) ClusterLadder(p int) (*cluster.Cluster, error) { return cluster.MMConfig(p) }

// WorkAt is W(n) for SpMVIters products: one multiply and one add per
// nonzero of the pentadiagonal band.
func (SpMV) WorkAt(n int) float64 { return spmvWork(n) }

// MemBytes counts the two working vectors (current and next); the band
// coefficients are recomputed on the fly and never materialised.
func (SpMV) MemBytes(n int) float64 {
	return 8 * 2 * float64(n)
}

func (SpMV) Machine(cl *cluster.Cluster, model simnet.CostModel) (core.AnalyticMachine, error) {
	to, err := spmvOverhead(cl, model)
	if err != nil {
		return core.AnalyticMachine{}, err
	}
	return core.AnalyticMachine{
		Label:     cl.Name,
		C:         cl.MarkedSpeed(),
		P:         cl.Size(),
		Sustained: DefaultSpMVSustained,
		Work: func(n float64) float64 {
			if n < 2 {
				return 1
			}
			return 2 * (5*n - 6) * SpMVIters
		},
		Overhead: to,
	}, nil
}

func (s SpMV) Run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, error) {
	out, _, err := s.run(ctx, cl, model, o, spec)
	return out, err
}

// run executes the heterogeneous banded SpMV iteration on a length-n
// vector (n >= 5): rank 0 scatters proportional bands, every iteration
// exchanges a two-scalar halo with each neighbour and applies the
// normalised band product, and rank 0 gathers the final vector. Under
// recovery the band state is checkpointed every spec.CkptSteps
// iterations. It also returns rank 0's final vector (nil when symbolic).
func (SpMV) run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, []float64, error) {
	n := spec.N
	if n < 5 {
		return Outcome{}, nil, fmt.Errorf("workload: SpMV needs n >= 5, got %d", n)
	}
	var initial []float64
	if !spec.Symbolic {
		initial = spmvInitialVector(n, spec.Seed)
	}
	b := band{name: "SpMV", count: n, width: 1, depth: spmvHalo}
	restore := func(snap *mpi.Snapshot) (int, []float64, error) { return b.restore(snap, initial) }
	body := func(r *bandRank, x []float64, start, interval int, ck *mpi.Checkpointer) ([]float64, float64, error) {
		return spmvRank(r, x, spec.Seed, start, interval, ck)
	}
	return runBand(ctx, cl, model, o, spec, b, spmvWork(n), restore, body)
}

// spmvNNZ is the exact nonzero count of the n×n pentadiagonal matrix:
// 5n − 6 once every diagonal is present (n ≥ 2; rows 0, 1, n−2, n−1
// lose the entries that would fall outside the matrix).
func spmvNNZ(n int) float64 {
	if n < 2 {
		return float64(n)
	}
	return 5*float64(n) - 6
}

// spmvNNZRange counts the nonzeros in rows [lo, hi): the flops a rank
// owning that band charges per iteration (2 per nonzero).
func spmvNNZRange(lo, hi, n int) float64 {
	nnz := 0
	for i := lo; i < hi; i++ {
		d0, d1 := -spmvHalo, spmvHalo
		if i+d0 < 0 {
			d0 = -i
		}
		if i+d1 > n-1 {
			d1 = n - 1 - i
		}
		nnz += d1 - d0 + 1
	}
	return float64(nnz)
}

// spmvWork is W(n) for SpMVIters products.
func spmvWork(n int) float64 {
	if n < 2 {
		return 0
	}
	return 2 * spmvNNZ(n) * SpMVIters
}

// spmvRowCoeffs returns row i's five band coefficients [d=-2..2],
// deterministically seeded and normalised to sum exactly 1 (entries
// outside the matrix are zero). Both the distributed ranks and the
// sequential verifier call this helper, so the arithmetic — including
// the normalising division — is bitwise identical on both paths.
func spmvRowCoeffs(n int, seed int64, i int) [5]float64 {
	var w [5]float64
	sum := 0.0
	for d := -spmvHalo; d <= spmvHalo; d++ {
		j := i + d
		if j < 0 || j >= n {
			continue
		}
		// Deterministic value in [1, 2): a splitmix-style integer hash of
		// (seed, i, d) keeps rows independent without any state.
		h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(d+spmvHalo)*0x94d049bb133111eb
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		v := 1 + float64(h>>11)/float64(1<<53)
		w[d+spmvHalo] = v
		sum += v
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

// spmvInitialVector builds the deterministic starting vector: a seeded
// smooth profile the averaging iteration relaxes.
func spmvInitialVector(n int, seed int64) []float64 {
	x := make([]float64, n)
	s := float64(seed%101) + 1
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		x[i] = s * (math.Sin(math.Pi*t) + 0.25*math.Cos(3*math.Pi*t))
	}
	return x
}

// spmvRank is the per-rank program body from iteration start on. It
// returns (vector, iterTimeMS) at rank 0; the iteration time is the band
// loop window. Owned entries live at local indices [2, rows+2); the two
// slots on each side hold neighbour ghosts (zero at the global ends,
// where the corresponding band coefficients are exactly zero). Rank 0
// ships owned entries only: the first halo exchange fills the ghosts.
func spmvRank(r *bandRank, x []float64, seed int64, start, interval int, ck *mpi.Checkpointer) ([]float64, float64, error) {
	c, n, lo, rows := r.c, r.count, r.lo, r.rows
	flops := 2 * spmvNNZRange(lo, lo+rows, n)
	cur, nxt, err := r.distribute(x)
	if err != nil {
		return nil, 0, err
	}
	iterMS := window(c, func() {
		for it := start; it < SpMVIters; it++ {
			r.exchange(cur)
			c.Compute(flops / DefaultSpMVSustained)
			if !r.symbolic {
				for li := spmvHalo; li < rows+spmvHalo; li++ {
					i := lo + li - spmvHalo
					w := spmvRowCoeffs(n, seed, i)
					s := 0.0
					for d := -spmvHalo; d <= spmvHalo; d++ {
						if j := i + d; j < 0 || j >= n {
							continue // the coefficient is exactly zero
						}
						s += w[d+spmvHalo] * cur[li+d]
					}
					nxt[li] = s
				}
				// Ghost slots carry over unchanged (zeros at the global ends).
				copy(nxt[:spmvHalo], cur[:spmvHalo])
				copy(nxt[rows+spmvHalo:], cur[rows+spmvHalo:])
				cur, nxt = nxt, cur
			}
			if checkpointDue(it, interval, SpMVIters) {
				ck.Save(c, r.pack(it+1, cur))
			}
		}
	})
	return r.collect(r.owned(cur), nil), iterMS, nil
}

// spmvSequential runs the same band iteration single-threaded for
// verification: identical coefficients, identical accumulation order.
func spmvSequential(n, iters int, seed int64) ([]float64, error) {
	if n < 5 {
		return nil, fmt.Errorf("workload: SpMV needs n >= 5, got %d", n)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("workload: SpMV needs iters > 0, got %d", iters)
	}
	cur := spmvInitialVector(n, seed)
	nxt := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			w := spmvRowCoeffs(n, seed, i)
			s := 0.0
			for d := -spmvHalo; d <= spmvHalo; d++ {
				j := i + d
				if j < 0 || j >= n {
					continue // the coefficient is exactly zero
				}
				s += w[d+spmvHalo] * cur[j]
			}
			nxt[i] = s
		}
		cur, nxt = nxt, cur
	}
	return cur, nil
}

// spmvOverhead returns the analytic To(n) in ms for the fixed-iteration
// product loop: per iteration an interior rank exchanges a two-scalar
// halo with each neighbour — constant in n, the flattest overhead curve
// in the workload set.
func spmvOverhead(cl *cluster.Cluster, m simnet.CostModel) (func(n float64) float64, error) {
	if cl == nil || m == nil {
		return nil, fmt.Errorf("workload: SpMV overhead needs cluster and model")
	}
	p := cl.Size()
	return func(n float64) float64 {
		pair := int(wordB) * spmvHalo
		exchanges := 2
		if p == 1 {
			exchanges = 0
		}
		halo := float64(exchanges) * (m.SendTime(pair) + m.TransferTime(pair) + m.RecvTime(pair))
		return float64(SpMVIters) * halo
	}, nil
}
