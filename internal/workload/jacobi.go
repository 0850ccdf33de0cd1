package workload

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
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

// Message tags used by the Jacobi program.
const (
	tagJacInit    = 200 // initial band distribution
	tagJacUp      = 201 // halo row travelling to the lower-index neighbour
	tagJacDown    = 202 // halo row travelling to the higher-index neighbour
	tagJacCollect = 203 // final band collection
)

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
	out, _, _, err := j.run(ctx, cl, model, o, spec, nil)
	return out, err
}

func (j Jacobi) RunRecovered(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec, rcfg RecoveryConfig) (Outcome, mpi.RecoveredResult, error) {
	out, rec, _, err := j.run(ctx, cl, model, o, spec, &rcfg)
	return out, rec, err
}

// run executes the heterogeneous Jacobi relaxation on an n x n grid
// (n >= 3): rank 0 scatters proportional row bands, every sweep
// exchanges one halo row with each neighbour and relaxes the interior,
// every JacobiCheckEvery sweeps the global residual is all-reduced, and
// rank 0 gathers the final grid. Under recovery the band state is
// checkpointed every IntervalSteps sweeps. It also returns rank 0's
// final grid (nil when symbolic).
func (j Jacobi) run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec, rcfg *RecoveryConfig) (Outcome, mpi.RecoveredResult, []float64, error) {
	n, symbolic := spec.N, spec.Symbolic
	if n < 3 {
		return Outcome{}, mpi.RecoveredResult{}, nil, fmt.Errorf("workload: Jacobi needs n >= 3, got %d", n)
	}
	st := distribution(spec, dist.HetBlock{})

	var initial []float64
	if !symbolic {
		initial = jacobiInitialGrid(n, spec.Seed)
	}

	var outGrid []float64
	var sweepMS float64
	rec, err := execute(ctx, cl, model, o, rcfg, func(inst mpi.Instance) (mpi.RecoverableProgram, error) {
		ranges, err := gridRanges("Jacobi", n, st, inst)
		if err != nil {
			return nil, err
		}
		k0, grid := 0, initial
		if inst.Resume != nil {
			k0, grid, err = decodeJacobiSnapshot(n, spec.Seed, inst.Resume, symbolic)
			if err != nil {
				return nil, err
			}
		}
		return func(c mpi.Comm, ck *mpi.Checkpointer) error {
			rec := &jacRecover{start: k0, interval: rcfg.interval(), ck: ck}
			g, sw, err := jacobiRank(c, n, ranges, grid, symbolic, j.Overlap, rec)
			if c.Rank() == 0 {
				outGrid, sweepMS = g, sw
			}
			return err
		}, nil
	})
	if err != nil {
		return Outcome{}, rec, nil, err
	}
	out := Outcome{Work: stencilWork(n, JacobiIters), VirtualTime: rec.TimeMS, Stats: rec.Result, Check: Checksum(outGrid)}
	if rcfg == nil {
		out.VirtualTime = sweepMS
	}
	return out, rec, outGrid, nil
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

// gridRanges distributes the n-2 interior rows of an n x n grid over an
// instance's members (boundary rows 0 and n-1 are fixed and never owned)
// and validates what the band stencils need: a contiguous block
// assignment, so the halo-exchange neighbours stay rank±1, with at least
// one row per rank. The ranges index interior rows, offset by 1.
func gridRanges(alg string, n int, st dist.Strategy, inst mpi.Instance) ([][2]int, error) {
	asn, err := survivorStrategy(st, inst.Ranks).Assign(n-2, inst.Cluster.Speeds())
	if err != nil {
		return nil, fmt.Errorf("workload: %s distribution: %w", alg, err)
	}
	if !isBlockAssignment(asn) {
		return nil, fmt.Errorf("workload: %s needs a contiguous block distribution, %T is not", alg, st)
	}
	for r, cnt := range asn.Counts {
		if cnt == 0 {
			return nil, fmt.Errorf("workload: %s grid too small: rank %d owns 0 rows (n=%d, p=%d)",
				alg, r, n, inst.Cluster.Size())
		}
	}
	return dist.BlockRanges(asn.Counts), nil
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

// jacRecover carries the recovery hooks into the iterative rank bodies
// (jacobiRank, mgRank, spmvRank): resume the loop at iteration start and
// checkpoint the band state every interval iterations. nil means a plain
// run.
type jacRecover struct {
	start    int
	interval int
	ck       *mpi.Checkpointer
}

// jacobiRank is the per-rank program body. It returns (grid,
// sweepTimeMS) at rank 0. The sweep time is the virtual time of the
// sweep loop alone, barrier to barrier, excluding the one-time
// distribution and collection: the field lives distributed in a real
// application, and the O(n²) one-shot scatter through rank 0 would
// otherwise dominate W ∝ n² at large system sizes.
func jacobiRank(c mpi.Comm, n int, ranges [][2]int, grid []float64, symbolic, overlap bool, rec *jacRecover) ([]float64, float64, error) {
	rank, p := c.Rank(), c.Size()
	const frac = DefaultJacobiSustained
	// Global interior row span of this rank: rows [lo, hi) with
	// 1 <= lo < hi <= n-1.
	lo, hi := ranges[rank][0]+1, ranges[rank][1]+1
	rows := hi - lo

	// Local storage: rows+2 rows of n values (ghost row above and below).
	cur := buffer((rows+2)*n, symbolic)
	nxt := buffer((rows+2)*n, symbolic)

	// --- Distribution: rank 0 sends each band including its initial ghost
	// rows (boundary values live in the ghosts of edge ranks).
	if rank == 0 {
		for r := p - 1; r >= 0; r-- {
			rlo, rhi := ranges[r][0]+1, ranges[r][1]+1
			band := buffer((rhi-rlo+2)*n, symbolic)
			if !symbolic {
				copy(band, grid[(rlo-1)*n:(rhi+1)*n])
			}
			if r != 0 {
				c.Send(r, tagJacInit, band)
			} else if !symbolic {
				copy(cur, band)
			}
		}
	} else {
		band := c.Recv(0, tagJacInit)
		if len(band) != len(cur) {
			return nil, 0, fmt.Errorf("workload: rank %d band size %d, want %d", rank, len(band), len(cur))
		}
		if !symbolic {
			copy(cur, band)
		}
	}
	if !symbolic {
		copy(nxt, cur)
	}

	// Time the sweep loop barrier-to-barrier: after these barriers every
	// rank's virtual clock is identical, so the window is a well-defined
	// makespan of the iteration region.
	c.Barrier()
	sweepStart := c.Clock()

	up, down := rank-1, rank+1
	needTop := up >= 0  // else the top ghost is the fixed boundary row
	needBot := down < p // else the bottom ghost is the fixed boundary row
	var localResid float64

	// relax applies the 5-point update to local rows [lo, hi] (inclusive,
	// 1-based within the band), charging virtual compute and, in real
	// mode, updating nxt and the running residual.
	relax := func(lo, hi int) {
		if hi < lo {
			return
		}
		c.Compute(6 * float64(hi-lo+1) * float64(n-2) / frac)
		if symbolic {
			return
		}
		for i := lo; i <= hi; i++ {
			for j := 1; j < n-1; j++ {
				idx := i*n + j
				v := 0.25 * (cur[idx-1] + cur[idx+1] + cur[idx-n] + cur[idx+n])
				if d := math.Abs(v - cur[idx]); d > localResid {
					localResid = d
				}
				nxt[idx] = v
			}
		}
	}

	startIt := 0
	if rec != nil {
		startIt = rec.start
	}
	for it := startIt; it < JacobiIters; it++ {
		if !symbolic {
			localResid = 0
		}
		if overlap {
			// --- Overlapped variant: non-blocking halo sends, relax the
			// rows that need no ghost while the transfers fly, then
			// receive and finish the ghost-dependent edge rows.
			if needTop {
				c.ISend(up, tagJacUp, section(cur, n, 2*n, symbolic))
			}
			if needBot {
				c.ISend(down, tagJacDown, section(cur, rows*n, (rows+1)*n, symbolic))
			}
			innerLo, innerHi := 1, rows
			if needTop {
				innerLo = 2
			}
			if needBot {
				innerHi = rows - 1
			}
			relax(innerLo, innerHi)
			if rows == 1 && needTop && needBot {
				// The single owned row needs both ghosts before relaxing.
				top := c.Recv(up, tagJacDown)
				bot := c.Recv(down, tagJacUp)
				if !symbolic {
					copy(cur[:n], top)
					copy(cur[(rows+1)*n:], bot)
				}
				relax(1, 1)
			} else {
				if needTop {
					ghost := c.Recv(up, tagJacDown)
					if !symbolic {
						copy(cur[:n], ghost)
					}
					relax(1, 1)
				}
				if needBot {
					ghost := c.Recv(down, tagJacUp)
					if !symbolic {
						copy(cur[(rows+1)*n:], ghost)
					}
					relax(rows, rows)
				}
			}
		} else {
			// --- Bulk-synchronous variant (the baseline): exchange, then
			// relax everything. Sends are issued before receives; the
			// runtime's sends do not rendezvous, so the symmetric pattern
			// cannot deadlock.
			if needTop {
				c.Send(up, tagJacUp, section(cur, n, 2*n, symbolic)) // my first owned row
			}
			if needBot {
				c.Send(down, tagJacDown, section(cur, rows*n, (rows+1)*n, symbolic)) // my last owned row
			}
			if needTop {
				ghost := c.Recv(up, tagJacDown)
				if !symbolic {
					copy(cur[:n], ghost)
				}
			}
			if needBot {
				ghost := c.Recv(down, tagJacUp)
				if !symbolic {
					copy(cur[(rows+1)*n:], ghost)
				}
			}
			relax(1, rows)
		}

		if !symbolic {
			// Preserve ghost and boundary columns, then swap.
			copy(nxt[:n], cur[:n])
			copy(nxt[(rows+1)*n:], cur[(rows+1)*n:])
			for i := 1; i <= rows; i++ {
				nxt[i*n] = cur[i*n]
				nxt[i*n+n-1] = cur[i*n+n-1]
			}
			cur, nxt = nxt, cur
		}

		// --- Periodic global residual check (cost model only: the sweep
		// count is fixed so results stay a pure function of inputs).
		if (it+1)%JacobiCheckEvery == 0 {
			c.Allreduce(localResid, mpi.OpMax)
		}
		if rec != nil && rec.interval > 0 && (it+1)%rec.interval == 0 && it+1 < JacobiIters {
			rec.ck.Save(c, packJacobiState(it+1, lo, rows, n, cur))
		}
	}

	// Close the timed sweep region.
	c.Barrier()
	sweepMS := c.Clock() - sweepStart

	// --- Collection at rank 0.
	own := buffer(rows*n, symbolic)
	if !symbolic {
		copy(own, cur[n:(rows+1)*n])
	}
	parts := c.Gatherv(0, own)
	if rank != 0 {
		return nil, 0, nil
	}
	if symbolic {
		return nil, sweepMS, nil
	}
	out := make([]float64, n*n)
	copy(out, grid) // boundary
	for r := 0; r < p; r++ {
		rlo := ranges[r][0] + 1
		copy(out[rlo*n:rlo*n+len(parts[r])], parts[r])
	}
	return out, sweepMS, nil
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

// packJacobiState encodes one rank's band after a sweep:
// [sweeps done, first interior row, row count, then count*n grid values].
// MG checkpoints its bands in the same layout.
func packJacobiState(sweeps, lo, rows, n int, cur []float64) []float64 {
	out := make([]float64, 3, 3+rows*n)
	out[0] = float64(sweeps)
	out[1] = float64(lo)
	out[2] = float64(rows)
	return append(out, cur[n:(rows+1)*n]...)
}

// decodeJacobiSnapshot rebuilds the full grid (boundary from the
// deterministic initial profile, interior from the checkpointed bands)
// and the completed sweep count.
func decodeJacobiSnapshot(n int, seed int64, snap *mpi.Snapshot, symbolic bool) (int, []float64, error) {
	if len(snap.Parts) == 0 || len(snap.Parts[0]) < 3 {
		return 0, nil, fmt.Errorf("workload: Jacobi snapshot %d malformed", snap.Seq)
	}
	k0 := int(snap.Parts[0][0])
	var grid []float64
	if !symbolic {
		grid = jacobiInitialGrid(n, seed)
	}
	for pi, part := range snap.Parts {
		if len(part) < 3 || int(part[0]) != k0 {
			return 0, nil, fmt.Errorf("workload: Jacobi snapshot %d part %d inconsistent", snap.Seq, pi)
		}
		lo, rows := int(part[1]), int(part[2])
		if len(part) != 3+rows*n || lo < 1 || lo+rows > n-1 {
			return 0, nil, fmt.Errorf("workload: Jacobi snapshot %d part %d shape invalid", snap.Seq, pi)
		}
		if symbolic {
			continue
		}
		copy(grid[lo*n:(lo+rows)*n], part[3:])
	}
	return k0, grid, nil
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
