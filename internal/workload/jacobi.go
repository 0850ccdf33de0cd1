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

// Jacobi is a third algorithm–system combination beyond the paper's two:
// an iterative 5-point Jacobi relaxation of the 2D Laplace equation with
// heterogeneous row-band decomposition, nearest-neighbour halo exchange
// per sweep and a periodic residual all-reduce, on the MM-style mixed
// ladder. Its communication per iteration is (almost) independent of the
// number of nodes, so under the isospeed-efficiency metric it is far more
// scalable than GE (per-iteration broadcasts) or MM (full-matrix
// replication); together the three span the scalability spectrum the
// metric is designed to rank. A plain run meters the sweep loop only —
// the standard stencil-benchmarking protocol. The zero value is the
// registered workload.
type Jacobi struct {
	// Overlap hides the halo transfers behind the ghost-independent
	// interior update using non-blocking sends (the classic
	// communication/computation overlap optimization). Results are
	// numerically identical to the bulk-synchronous variant.
	Overlap bool
}

func init() { Register(Jacobi{}) }

// Fixed Jacobi study parameters: the sweep count is part of the
// algorithm-system combination definition, like the GE pivot policy, so
// W(n) is a pure function.
const (
	// JacobiIters is the number of relaxation sweeps per run.
	JacobiIters = 100
	// JacobiCheckEvery is the residual all-reduce cadence in sweeps. The
	// sweep count stays fixed either way — the check models the
	// synchronization cost.
	JacobiCheckEvery = 10
)

// DefaultJacobiSustained is the sustained fraction for the stencil
// kernel (streaming-friendly, between GE and MM).
const DefaultJacobiSustained = 0.58

func (Jacobi) Name() string { return "jacobi" }
func (Jacobi) About() string {
	return "Jacobi 5-point relaxation, block rows, halo exchange per sweep (stencil extension)"
}
func (Jacobi) DefaultTarget() float64 { return 0.3 }

func (Jacobi) ClusterLadder(p int) (*cluster.Cluster, error) { return cluster.MMConfig(p) }

// WorkAt is W(n) for JacobiIters sweeps on an n x n grid: 6 flops per
// interior point per sweep (4 adds, 1 multiply, 1 residual op).
func (Jacobi) WorkAt(n int) float64 { return stencilWork(n, JacobiIters) }

// MemBytes counts the two n×n grids of the sweep (current and next).
func (Jacobi) MemBytes(n int) float64 {
	f := float64(n)
	return 8 * 2 * f * f
}

func (Jacobi) Machine(cl *cluster.Cluster, model simnet.CostModel) (core.AnalyticMachine, error) {
	to, err := haloOverhead(cl, model, JacobiIters, JacobiCheckEvery)
	if err != nil {
		return core.AnalyticMachine{}, err
	}
	return core.AnalyticMachine{
		Label:     cl.Name,
		C:         cl.MarkedSpeed(),
		P:         cl.Size(),
		Sustained: DefaultJacobiSustained,
		Work: func(n float64) float64 {
			if n < 3 {
				return 1
			}
			return 6 * (n - 2) * (n - 2) * JacobiIters
		},
		Overhead: to,
	}, nil
}

func (j Jacobi) Run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, error) {
	out, _, err := j.run(ctx, cl, model, o, spec)
	return out, err
}

// run executes the heterogeneous Jacobi relaxation: the stencil with the
// 5-point average, a residual all-reduce every JacobiCheckEvery sweeps,
// and optionally overlapped halo transfers.
func (j Jacobi) run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, []float64, error) {
	s := stencil{
		name: "Jacobi", iters: JacobiIters, checkEvery: JacobiCheckEvery, frac: DefaultJacobiSustained,
		overlap: j.Overlap, initial: jacobiInitialGrid, sweep: jacobiSweep,
	}
	return s.run(ctx, cl, model, o, spec)
}

// stencil is a 5-point sweep program over the interior of an n x n grid
// in heterogeneous row bands; Jacobi and MG are two values of it. Rank 0
// ships each rank its band with one ghost row on each side, every sweep
// exchanges one halo row with each neighbour and relaxes the band's
// interior points, every checkEvery sweeps a residual all-reduce
// synchronizes the ranks, and rank 0 gathers the final grid. Under
// recovery the bands are checkpointed every spec.CkptSteps sweeps.
type stencil struct {
	name       string
	iters      int     // sweeps per run
	checkEvery int     // sweeps between residual all-reduces, 0 for none
	frac       float64 // sustained fraction
	// overlap hides the halo transfers behind the ghost-independent
	// interior rows with non-blocking sends.
	overlap bool
	initial func(n int, seed int64) []float64
	// sweep applies the point update to local rows lo..hi of a band.
	sweep func(cur, nxt []float64, n, lo, hi int)
}

// run executes the stencil on an n x n grid (n >= 3). It also returns
// rank 0's final grid (nil when symbolic).
func (s stencil) run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, []float64, error) {
	n := spec.N
	if n < 3 {
		return Outcome{}, nil, fmt.Errorf("workload: %s needs n >= 3, got %d", s.name, n)
	}
	var initial []float64
	if !spec.Symbolic {
		initial = s.initial(n, spec.Seed)
	}
	b := band{name: s.name, count: n - 2, width: n, first: 1, depth: 1, ship: 1}
	restore := func(snap *mpi.Snapshot) (int, []float64, error) { return b.restore(snap, initial) }
	return runBand(ctx, cl, model, o, spec, b, stencilWork(n, s.iters), restore, s.rank)
}

// rank is the per-rank program body from sweep start on. It returns
// (grid, sweepTimeMS) at rank 0; the sweep time is the band loop window.
// The residual all-reduce prices the synchronization only: the sweep
// count is fixed, so results stay a pure function of the inputs.
func (s stencil) rank(r *bandRank, grid []float64, start, interval int, ck *mpi.Checkpointer) ([]float64, float64, error) {
	c, n, rows := r.c, r.width, r.rows
	cur, nxt, err := r.distribute(grid)
	if err != nil {
		return nil, 0, err
	}
	top := c.Rank() > 0          // else the top ghost is the fixed boundary row
	bot := c.Rank() < c.Size()-1 // else the bottom ghost is the fixed boundary row

	// relax updates local rows [lo, hi] (1-based within the band),
	// charging virtual compute first.
	relax := func(lo, hi int) {
		if hi < lo {
			return
		}
		c.Compute(6 * float64(hi-lo+1) * float64(n-2) / s.frac)
		if !r.symbolic {
			s.sweep(cur, nxt, n, lo, hi)
		}
	}

	sweepMS := window(c, func() {
		for it := start; it < s.iters; it++ {
			if s.overlap {
				// Relax the rows that need no ghost while the halo
				// transfers fly, then receive and finish the edge rows (a
				// single owned row waits for both ghosts).
				r.sendHalo(cur, true)
				lo, hi := 1, rows
				if top {
					lo = 2
				}
				if bot {
					hi = rows - 1
				}
				relax(lo, hi)
				if top {
					r.recvTop(cur)
					if rows > 1 || !bot {
						relax(1, 1)
					}
				}
				if bot {
					r.recvBottom(cur)
					relax(rows, rows)
				}
			} else {
				r.exchange(cur)
				relax(1, rows)
			}

			if !r.symbolic {
				// Preserve ghost and boundary columns, then swap.
				copy(nxt[:n], cur[:n])
				copy(nxt[(rows+1)*n:], cur[(rows+1)*n:])
				for i := 1; i <= rows; i++ {
					nxt[i*n] = cur[i*n]
					nxt[i*n+n-1] = cur[i*n+n-1]
				}
				cur, nxt = nxt, cur
			}

			if s.checkEvery > 0 && (it+1)%s.checkEvery == 0 {
				c.Allreduce(0, mpi.OpMax)
			}
			if checkpointDue(it, interval, s.iters) {
				ck.Save(c, r.pack(it+1, cur))
			}
		}
	})
	return r.collect(r.owned(cur), grid), sweepMS, nil
}

// stencilWork is W(n) for iters sweeps of a 5-point stencil charging 6
// flops per interior point of an n x n grid (Jacobi and MG alike).
func stencilWork(n, iters int) float64 {
	if n < 3 {
		return 0
	}
	inner := float64(n-2) * float64(n-2)
	return 6 * inner * float64(iters)
}

// jacobiSweep relaxes local rows lo..hi of a band with the 5-point
// Jacobi update.
func jacobiSweep(cur, nxt []float64, n, lo, hi int) {
	for i := lo; i <= hi; i++ {
		for j := 1; j < n-1; j++ {
			idx := i*n + j
			nxt[idx] = 0.25 * (cur[idx-1] + cur[idx+1] + cur[idx-n] + cur[idx+n])
		}
	}
}

// jacobiInitialGrid builds the deterministic Dirichlet problem: boundary
// held at a smooth profile, interior at zero.
func jacobiInitialGrid(n int, seed int64) []float64 {
	g := make([]float64, n*n)
	s := float64(seed%97) + 1
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		g[i] = math.Sin(math.Pi*t) * s             // top row
		g[(n-1)*n+i] = math.Cos(math.Pi*t) * s / 2 // bottom row
		g[i*n] = t * s                             // left column
		g[i*n+n-1] = (1 - t) * s                   // right column
	}
	return g
}

// jacobiSequential runs the same relaxation single-threaded for
// verification: identical sweep count, identical update order.
func jacobiSequential(n, iters int, seed int64) ([]float64, error) {
	if n < 3 {
		return nil, fmt.Errorf("workload: Jacobi needs n >= 3, got %d", n)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("workload: Jacobi needs iters > 0, got %d", iters)
	}
	cur := jacobiInitialGrid(n, seed)
	nxt := make([]float64, len(cur))
	copy(nxt, cur)
	for it := 0; it < iters; it++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				idx := i*n + j
				nxt[idx] = 0.25 * (cur[idx-1] + cur[idx+1] + cur[idx-n] + cur[idx+n])
			}
		}
		cur, nxt = nxt, cur
	}
	return cur, nil
}

// haloOverhead returns the analytic To(n) in ms for the fixed-iteration
// sweep loop of a band stencil on the given cluster: per sweep, each
// interior rank exchanges two halo rows (edge ranks one), plus — every
// checkEvery sweeps, 0 for none — the residual all-reduce modeled as a
// gather of scalars at rank 0 and a broadcast. The one-time
// distribution/collection is deliberately outside the model, matching
// the sweep-window measurement. Jacobi and MG share it; MG has no
// all-reduce.
func haloOverhead(cl *cluster.Cluster, m simnet.CostModel, iters, checkEvery int) (func(n float64) float64, error) {
	if cl == nil || m == nil {
		return nil, fmt.Errorf("workload: halo overhead needs cluster and model")
	}
	p := cl.Size()
	return func(n float64) float64 {
		row := int(wordB * n)
		// Critical-path halo cost per sweep: an interior rank sends two
		// rows and receives two rows.
		exchanges := 2
		if p == 1 {
			exchanges = 0
		}
		halo := float64(exchanges) * (m.SendTime(row) + m.TransferTime(row) + m.RecvTime(row))
		to := float64(iters) * halo
		if checkEvery > 0 && p > 1 {
			scalar := int(wordB)
			perCheck := float64(p-1)*(m.TransferTime(scalar)+m.RecvTime(scalar)) + m.BcastTime(p, scalar)
			to += float64(iters/checkEvery) * perCheck
		}
		return to
	}, nil
}
