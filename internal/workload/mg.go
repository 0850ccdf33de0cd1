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

// MG is the fourth combination and the proof of the registry seam: the
// damped 5-point smoothing sweep of the NPB MG kernel
// (internal/nasbench), distributed over heterogeneous row bands with
// pure halo exchange — no collective in the sweep loop at all, the most
// scalable pattern in the set. Per sweep every interior point computes
// the weighted-Jacobi update 0.5*C + 0.125*(N+S+E+W) (ω = 1/2, which
// damps the checkerboard mode exactly) — 6 flops per interior point, the
// same per-point cost the nasbench MG kernel charges, so the workload's
// W(n) and the marked-speed benchmark's flop count agree by
// construction. This file is the workload's entire integration: study
// pipeline, experiment suite, fault/recovery sweeps and both scan CLIs
// pick it up from the registry with no edits of their own.
type MG struct{}

func init() { Register(MG{}) }

// MGIters is the fixed number of smoothing sweeps per MG run.
const MGIters = 80

// DefaultMGSustained is the sustained fraction for the damped stencil
// (one fused multiply more per point than Jacobi, slightly better
// arithmetic intensity).
const DefaultMGSustained = 0.62

// Message tags used by the MG program.
const (
	tagMGInit = 210 // initial band distribution
	tagMGUp   = 211 // halo row travelling to the lower-index neighbour
	tagMGDown = 212 // halo row travelling to the higher-index neighbour
)

func (MG) Name() string { return "mg" }
func (MG) About() string {
	return "NPB MG damped smoothing stencil, block rows, halo-only sweeps (registry extension)"
}
func (MG) DefaultTarget() float64 { return 0.3 }

func (MG) ClusterLadder(p int) (*cluster.Cluster, error) { return cluster.MMConfig(p) }

// WorkAt is W(n) for MGIters sweeps on an n x n grid: 6 flops per
// interior point per sweep, matching nasbench's MG.Flops.
func (MG) WorkAt(n int) float64 { return stencilWork(n, MGIters) }

// MemBytes counts the two n×n grids of the sweep (current and next).
func (MG) MemBytes(n int) float64 {
	f := float64(n)
	return 8 * 2 * f * f
}

// Machine prices the sweep loop with pure halo exchange and no
// collective term: Jacobi's overhead model with the residual check
// disabled, matching the sweep-window measurement.
func (MG) Machine(cl *cluster.Cluster, model simnet.CostModel) (core.AnalyticMachine, error) {
	to, err := haloOverhead(cl, model, MGIters, 0)
	if err != nil {
		return core.AnalyticMachine{}, err
	}
	return core.AnalyticMachine{
		Label:     cl.Name,
		C:         cl.MarkedSpeed(),
		P:         cl.Size(),
		Sustained: DefaultMGSustained,
		Work: func(n float64) float64 {
			if n < 3 {
				return 1
			}
			return 6 * (n - 2) * (n - 2) * MGIters
		},
		Overhead: to,
	}, nil
}

func (m MG) Run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, error) {
	out, _, _, err := m.run(ctx, cl, model, o, spec, nil)
	return out, err
}

func (m MG) RunRecovered(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec, rcfg RecoveryConfig) (Outcome, mpi.RecoveredResult, error) {
	out, rec, _, err := m.run(ctx, cl, model, o, spec, &rcfg)
	return out, rec, err
}

// run executes the heterogeneous MG smoothing stencil on an n x n grid
// (n >= 3): rank 0 scatters proportional row bands, every sweep
// exchanges one halo row with each neighbour and applies the damped
// update to the interior, and rank 0 gathers the final grid. Under
// recovery the band state is checkpointed every IntervalSteps sweeps.
// It also returns rank 0's final grid (nil when symbolic).
func (MG) run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec, rcfg *RecoveryConfig) (Outcome, mpi.RecoveredResult, []float64, error) {
	n, symbolic := spec.N, spec.Symbolic
	if n < 3 {
		return Outcome{}, mpi.RecoveredResult{}, nil, fmt.Errorf("workload: MG needs n >= 3, got %d", n)
	}
	st := distribution(spec, dist.HetBlock{})

	var initial []float64
	if !symbolic {
		initial = mgInitialGrid(n, spec.Seed)
	}

	var outGrid []float64
	var sweepMS float64
	rec, err := execute(ctx, cl, model, o, rcfg, func(inst mpi.Instance) (mpi.RecoverableProgram, error) {
		ranges, err := gridRanges("MG", n, st, inst)
		if err != nil {
			return nil, err
		}
		k0, grid := 0, initial
		if inst.Resume != nil {
			k0, grid, err = decodeMGSnapshot(n, spec.Seed, inst.Resume, symbolic)
			if err != nil {
				return nil, err
			}
		}
		return func(c mpi.Comm, ck *mpi.Checkpointer) error {
			rec := &jacRecover{start: k0, interval: rcfg.interval(), ck: ck}
			g, sw, err := mgRank(c, n, ranges, grid, symbolic, rec)
			if c.Rank() == 0 {
				outGrid, sweepMS = g, sw
			}
			return err
		}, nil
	})
	if err != nil {
		return Outcome{}, rec, nil, err
	}
	out := Outcome{Work: stencilWork(n, MGIters), VirtualTime: rec.TimeMS, Stats: rec.Result, Check: Checksum(outGrid)}
	if rcfg == nil {
		out.VirtualTime = sweepMS
	}
	return out, rec, outGrid, nil
}

// mgInitialGrid builds the deterministic smoothing problem: a seeded
// smooth profile over the whole grid. The boundary stays fixed; the
// damped sweep relaxes the interior toward its harmonic extension.
func mgInitialGrid(n int, seed int64) []float64 {
	g := make([]float64, n*n)
	s := float64(seed%101) + 1
	for i := 0; i < n; i++ {
		ti := float64(i) / float64(n-1)
		for j := 0; j < n; j++ {
			tj := float64(j) / float64(n-1)
			g[i*n+j] = s * math.Sin(math.Pi*ti) * math.Cos(2*math.Pi*tj)
		}
	}
	return g
}

// mgRank is the per-rank program body. It returns (grid, sweepTimeMS) at
// rank 0; the sweep time is the same barrier-to-barrier window as
// Jacobi's. The structure mirrors jacobiRank's bulk-synchronous variant;
// only the point update and the absence of the residual all-reduce
// differ.
func mgRank(c mpi.Comm, n int, ranges [][2]int, grid []float64, symbolic bool, rec *jacRecover) ([]float64, float64, error) {
	rank, p := c.Rank(), c.Size()
	const frac = DefaultMGSustained
	lo, hi := ranges[rank][0]+1, ranges[rank][1]+1
	rows := hi - lo

	cur := buffer((rows+2)*n, symbolic)
	nxt := buffer((rows+2)*n, symbolic)

	// --- Distribution: rank 0 sends each band including its ghost rows.
	if rank == 0 {
		for r := p - 1; r >= 0; r-- {
			rlo, rhi := ranges[r][0]+1, ranges[r][1]+1
			band := buffer((rhi-rlo+2)*n, symbolic)
			if !symbolic {
				copy(band, grid[(rlo-1)*n:(rhi+1)*n])
			}
			if r != 0 {
				c.Send(r, tagMGInit, band)
			} else if !symbolic {
				copy(cur, band)
			}
		}
	} else {
		band := c.Recv(0, tagMGInit)
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

	c.Barrier()
	sweepStart := c.Clock()

	up, down := rank-1, rank+1
	needTop := up >= 0
	needBot := down < p

	startIt := 0
	if rec != nil {
		startIt = rec.start
	}
	for it := startIt; it < MGIters; it++ {
		if needTop {
			c.Send(up, tagMGUp, section(cur, n, 2*n, symbolic))
		}
		if needBot {
			c.Send(down, tagMGDown, section(cur, rows*n, (rows+1)*n, symbolic))
		}
		if needTop {
			ghost := c.Recv(up, tagMGDown)
			if !symbolic {
				copy(cur[:n], ghost)
			}
		}
		if needBot {
			ghost := c.Recv(down, tagMGUp)
			if !symbolic {
				copy(cur[(rows+1)*n:], ghost)
			}
		}

		c.Compute(6 * float64(rows) * float64(n-2) / frac)
		if !symbolic {
			for i := 1; i <= rows; i++ {
				for j := 1; j < n-1; j++ {
					idx := i*n + j
					nxt[idx] = 0.5*cur[idx] + 0.125*(cur[idx-1]+cur[idx+1]+cur[idx-n]+cur[idx+n])
				}
			}
			// Preserve ghost rows and boundary columns, then swap.
			copy(nxt[:n], cur[:n])
			copy(nxt[(rows+1)*n:], cur[(rows+1)*n:])
			for i := 1; i <= rows; i++ {
				nxt[i*n] = cur[i*n]
				nxt[i*n+n-1] = cur[i*n+n-1]
			}
			cur, nxt = nxt, cur
		}

		if rec != nil && rec.interval > 0 && (it+1)%rec.interval == 0 && it+1 < MGIters {
			rec.ck.Save(c, packJacobiState(it+1, lo, rows, n, cur))
		}
	}

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
	copy(out, grid) // boundary rows/columns
	for r := 0; r < p; r++ {
		rlo := ranges[r][0] + 1
		copy(out[rlo*n:rlo*n+len(parts[r])], parts[r])
	}
	return out, sweepMS, nil
}

// mgSequential runs the same smoothing single-threaded for verification:
// identical sweep count, identical update order.
func mgSequential(n, iters int, seed int64) ([]float64, error) {
	if n < 3 {
		return nil, fmt.Errorf("workload: MG needs n >= 3, got %d", n)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("workload: MG needs iters > 0, got %d", iters)
	}
	cur := mgInitialGrid(n, seed)
	nxt := make([]float64, len(cur))
	copy(nxt, cur)
	for it := 0; it < iters; it++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				idx := i*n + j
				nxt[idx] = 0.5*cur[idx] + 0.125*(cur[idx-1]+cur[idx+1]+cur[idx-n]+cur[idx+n])
			}
		}
		cur, nxt = nxt, cur
	}
	return cur, nil
}

// decodeMGSnapshot rebuilds the full grid (boundary from the
// deterministic initial profile, interior from the checkpointed bands)
// and the completed sweep count. The band layout is Jacobi's codec; only
// the boundary reconstruction differs.
func decodeMGSnapshot(n int, seed int64, snap *mpi.Snapshot, symbolic bool) (int, []float64, error) {
	if len(snap.Parts) == 0 || len(snap.Parts[0]) < 3 {
		return 0, nil, fmt.Errorf("workload: MG snapshot %d malformed", snap.Seq)
	}
	k0 := int(snap.Parts[0][0])
	var grid []float64
	if !symbolic {
		grid = mgInitialGrid(n, seed)
	}
	for pi, part := range snap.Parts {
		if len(part) < 3 || int(part[0]) != k0 {
			return 0, nil, fmt.Errorf("workload: MG snapshot %d part %d inconsistent", snap.Seq, pi)
		}
		lo, rows := int(part[1]), int(part[2])
		if len(part) != 3+rows*n || lo < 1 || lo+rows > n-1 {
			return 0, nil, fmt.Errorf("workload: MG snapshot %d part %d shape invalid", snap.Seq, pi)
		}
		if symbolic {
			continue
		}
		copy(grid[lo*n:(lo+rows)*n], part[3:])
	}
	return k0, grid, nil
}
