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

// MG is the fourth combination and the proof of the registry seam: the
// damped 5-point smoothing sweep of the NPB MG kernel
// (internal/nasbench), distributed over heterogeneous row bands with
// pure halo exchange — no collective in the sweep loop at all, the most
// scalable pattern in the set. Per sweep every interior point computes
// the weighted-Jacobi update 0.5*C + 0.125*(N+S+E+W) (ω = 1/2, which
// damps the checkerboard mode exactly) — 6 flops per interior point, the
// same per-point cost the nasbench MG kernel charges, so the workload's
// W(n) and the marked-speed benchmark's flop count agree by
// construction. Its rank program is Jacobi's stencil with that point
// update and no residual all-reduce. This file is the workload's entire
// integration: study pipeline, experiment suite, fault/recovery sweeps
// and both scan CLIs pick it up from the registry with no edits of their
// own.
type MG struct{}

func init() { Register(MG{}) }

// MGIters is the fixed number of smoothing sweeps per MG run.
const MGIters = 80

// DefaultMGSustained is the sustained fraction for the damped stencil
// (one fused multiply more per point than Jacobi, slightly better
// arithmetic intensity).
const DefaultMGSustained = 0.62

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

// run executes the heterogeneous MG smoothing on an n x n grid (n >= 3)
// as a stencil with no residual all-reduce; it also returns rank 0's
// final grid (nil when symbolic).
func (MG) run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec, rcfg *RecoveryConfig) (Outcome, mpi.RecoveredResult, []float64, error) {
	s := stencil{name: "MG", iters: MGIters, frac: DefaultMGSustained, initial: mgInitialGrid, sweep: mgSweep}
	return s.run(ctx, cl, model, o, spec, rcfg)
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

// mgSweep applies the damped update to local rows lo..hi of a band.
func mgSweep(cur, nxt []float64, n, lo, hi int) {
	for i := lo; i <= hi; i++ {
		for j := 1; j < n-1; j++ {
			idx := i*n + j
			nxt[idx] = 0.5*cur[idx] + 0.125*(cur[idx-1]+cur[idx+1]+cur[idx-n]+cur[idx+n])
		}
	}
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
