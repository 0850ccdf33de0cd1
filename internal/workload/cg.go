package workload

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// CG is the all-reduce-dominated extreme of the registered
// communication-pattern spectrum: the conjugate gradient method on the
// 5-point Laplace system A u = b over the (n-2)×(n-2) interior of the
// Jacobi Dirichlet problem, distributed over heterogeneous row bands.
// Every iteration needs one halo exchange for the sparse matrix-vector
// product plus TWO global inner products, so unlike Jacobi/MG its
// per-iteration communication grows with p through the reductions —
// under the isospeed-efficiency metric it sits below the stencils and
// above GE.
//
// The inner products deliberately avoid Allreduce: each rank reduces its
// owned rows left-to-right, the per-row partials are gathered at rank 0
// in global row order, summed sequentially, and the scalar broadcast
// back. The summation order is then a pure function of the global row
// count — independent of the band partition — which keeps recovered runs
// (redistributed over survivors) bitwise equal to undisturbed ones. This
// file is the workload's entire integration: study pipeline, experiment
// suite, fault/recovery sweeps, tracedecomp, membound and both scan CLIs
// pick it up from the registry with no edits of their own.
type CG struct{}

func init() { Register(CG{}) }

// CGIters is the fixed number of conjugate-gradient iterations per run,
// so W(n) is a pure function.
const CGIters = 40

// DefaultCGSustained is the sustained fraction for the CG kernels (SpMV
// plus stream-like vector updates: memory-bound, below the stencils).
const DefaultCGSustained = 0.5

func (CG) Name() string { return "cg" }
func (CG) About() string {
	return "conjugate gradient on the Laplace system, block rows, two reductions per iteration (registry extension)"
}
func (CG) DefaultTarget() float64 { return 0.25 }

func (CG) ClusterLadder(p int) (*cluster.Cluster, error) { return cluster.MMConfig(p) }

// WorkAt is W(n) for CGIters iterations on the (n-2)² interior system:
// per point per iteration, 6 flops for the 5-point SpMV, 2 per inner
// product (twice), 4 for the two axpy updates and 2 for the direction
// update — 16 in total — plus the one-time 2-flop initial residual
// product.
func (CG) WorkAt(n int) float64 { return cgWork(n) }

// MemBytes counts the five interior-length solver vectors (x, r, p, q, b)
// plus the n×n boundary profile grid behind the right-hand side.
func (CG) MemBytes(n int) float64 {
	f := float64(n)
	w := f - 2
	if w < 0 {
		w = 0
	}
	return 8 * (5*w*w + f*f)
}

func (CG) Machine(cl *cluster.Cluster, model simnet.CostModel) (core.AnalyticMachine, error) {
	to, err := cgOverhead(cl, model)
	if err != nil {
		return core.AnalyticMachine{}, err
	}
	return core.AnalyticMachine{
		Label:     cl.Name,
		C:         cl.MarkedSpeed(),
		P:         cl.Size(),
		Sustained: DefaultCGSustained,
		Work: func(n float64) float64 {
			if n < 3 {
				return 1
			}
			return (n - 2) * (n - 2) * (2 + 16*CGIters)
		},
		Overhead: to,
	}, nil
}

func (w CG) Run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, error) {
	out, _, err := w.run(ctx, cl, model, o, spec)
	return out, err
}

// run executes the heterogeneous conjugate gradient on the (n-2)²
// interior system (n >= 3): rank 0 scatters proportional row bands of
// b, every iteration exchanges one halo row of the direction vector with
// each neighbour for the SpMV and performs two gather-and-broadcast
// inner products, and rank 0 gathers the final iterate. Under recovery
// the solver state is checkpointed every spec.CkptSteps iterations. It
// also returns rank 0's solution over the interior (nil when symbolic).
func (CG) run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, []float64, error) {
	n, symbolic := spec.N, spec.Symbolic
	if n < 3 {
		return Outcome{}, nil, fmt.Errorf("workload: CG needs n >= 3, got %d", n)
	}
	var b []float64
	if !symbolic {
		b = cgRHS(n, spec.Seed)
	}
	restore := func(snap *mpi.Snapshot) (int, *cgResume, error) {
		if snap == nil {
			return 0, nil, nil
		}
		return decodeCGSnapshot(n, snap, symbolic)
	}
	body := func(r *bandRank, resume *cgResume, start, interval int, ck *mpi.Checkpointer) ([]float64, float64, error) {
		return cgRank(r, b, resume, start, interval, ck)
	}
	shape := band{name: "CG", count: n - 2, width: n - 2, depth: 1}
	return runBand(ctx, cl, model, o, spec, shape, cgWork(n), restore, body)
}

// cgWork is W(n) for CGIters iterations.
func cgWork(n int) float64 {
	if n < 3 {
		return 0
	}
	m := float64(n-2) * float64(n-2)
	return m * (2 + 16*CGIters)
}

// cgRHS builds the right-hand side of the discrete 5-point Laplace
// system over the (n-2)×(n-2) interior: b collects the known Dirichlet
// boundary values of the deterministic Jacobi profile adjacent to each
// interior point.
func cgRHS(n int, seed int64) []float64 {
	g := jacobiInitialGrid(n, seed)
	w := n - 2
	b := make([]float64, w*w)
	for i := 0; i < w; i++ {
		for j := 0; j < w; j++ {
			gi, gj := i+1, j+1
			var s float64
			if gi == 1 {
				s += g[(gi-1)*n+gj]
			}
			if gi == n-2 {
				s += g[(gi+1)*n+gj]
			}
			if gj == 1 {
				s += g[gi*n+gj-1]
			}
			if gj == n-2 {
				s += g[gi*n+gj+1]
			}
			b[i*w+j] = s
		}
	}
	return b
}

// cgResume carries the solver state restored from a committed
// checkpoint: global x, r, p over the interior (nil when symbolic) and
// the residual norm rho.
type cgResume struct {
	rho     float64
	x, r, p []float64
}

// cgDot computes the global inner product <a, b> of two band-distributed
// interior vectors: per-row left-to-right partial sums, gathered at rank
// 0 in global row order, summed sequentially, scalar broadcast back.
// The 2 flops per point are charged before the gather.
func cgDot(c *mpi.Comm, a, b []float64, rows, w int, frac float64, symbolic bool) float64 {
	c.Compute(2 * float64(rows) * float64(w) / frac)
	part := buffer(rows, symbolic)
	if !symbolic {
		for i := 0; i < rows; i++ {
			var s float64
			for j := 0; j < w; j++ {
				s += a[i*w+j] * b[i*w+j]
			}
			part[i] = s
		}
	}
	parts := c.Gatherv(0, part)
	var tot []float64
	if c.Rank() == 0 {
		tot = buffer(1, symbolic)
		if !symbolic {
			var s float64
			for _, pr := range parts {
				for _, v := range pr {
					s += v
				}
			}
			tot[0] = s
		}
	}
	return c.Bcast(0, tot)[0]
}

// cgRank is the per-rank program body from iteration start on. It
// returns (x, iterTimeMS) at rank 0; the iteration time is the band loop
// window, the same metering window as the stencils' sweep time. b is the
// fresh-start right-hand side (rank 0, nil when symbolic); resume is
// non-nil when replaying from a checkpoint.
func cgRank(r *bandRank, b []float64, resume *cgResume, start, interval int, ck *mpi.Checkpointer) ([]float64, float64, error) {
	c, rows, w, symbolic := r.c, r.rows, r.width, r.symbolic
	rank, p := c.Rank(), c.Size()
	const frac = DefaultCGSustained

	xv := buffer(rows*w, symbolic)
	rv := buffer(rows*w, symbolic)
	pv := r.buffer() // ghost row above and below, zero at the global edges
	qv := buffer(rows*w, symbolic)

	// --- Distribution: rank 0 scatters either the fresh b bands or the
	// restored [x|r|p] bands, in ascending rank order.
	var rho float64
	if resume == nil {
		var segs [][]float64
		if rank == 0 {
			segs = make([][]float64, p)
			for q := range segs {
				segs[q] = section(b, r.ranges[q][0]*w, r.ranges[q][1]*w, symbolic)
			}
		}
		band := c.Scatterv(0, segs)
		if len(band) != rows*w {
			return nil, 0, fmt.Errorf("workload: rank %d band size %d, want %d", rank, len(band), rows*w)
		}
		if !symbolic {
			// x0 = 0, r0 = b, p0 = r0.
			copy(rv, band)
			copy(pv[w:(rows+1)*w], band)
		}
		rho = cgDot(c, rv, rv, rows, w, frac, symbolic)
	} else {
		rho = resume.rho
		var segs [][]float64
		if rank == 0 {
			segs = make([][]float64, p)
			for q := range segs {
				cnt := r.ranges[q][1] - r.ranges[q][0]
				seg := buffer(3*cnt*w, symbolic)
				if !symbolic {
					rlo, rhi := r.ranges[q][0]*w, r.ranges[q][1]*w
					copy(seg[:cnt*w], resume.x[rlo:rhi])
					copy(seg[cnt*w:2*cnt*w], resume.r[rlo:rhi])
					copy(seg[2*cnt*w:], resume.p[rlo:rhi])
				}
				segs[q] = seg
			}
		}
		band := c.Scatterv(0, segs)
		if len(band) != 3*rows*w {
			return nil, 0, fmt.Errorf("workload: rank %d resume band size %d, want %d", rank, len(band), 3*rows*w)
		}
		if !symbolic {
			copy(xv, band[:rows*w])
			copy(rv, band[rows*w:2*rows*w])
			copy(pv[w:(rows+1)*w], band[2*rows*w:])
		}
	}

	iterMS := window(c, func() {
		for it := start; it < CGIters; it++ {
			// --- Halo exchange of the direction vector's edge rows; the
			// global edges keep the zero Dirichlet closure.
			r.exchange(pv)

			// --- q = A p: the 5-point operator over the interior system.
			// Global edge neighbours subtract an exact zero from the padded
			// ghosts, matching the sequential reference bitwise.
			c.Compute(6 * float64(rows) * float64(w) / frac)
			if !symbolic {
				for i := 0; i < rows; i++ {
					for j := 0; j < w; j++ {
						idx := (i+1)*w + j
						s := 4 * pv[idx]
						if j > 0 {
							s -= pv[idx-1]
						}
						if j < w-1 {
							s -= pv[idx+1]
						}
						s -= pv[idx-w]
						s -= pv[idx+w]
						qv[i*w+j] = s
					}
				}
			}

			pq := cgDot(c, pv[w:(rows+1)*w], qv, rows, w, frac, symbolic)
			var alpha float64
			if !symbolic && pq != 0 {
				alpha = rho / pq
			}

			// --- x += alpha p, r -= alpha q.
			c.Compute(4 * float64(rows) * float64(w) / frac)
			if !symbolic {
				for i := 0; i < rows*w; i++ {
					xv[i] += alpha * pv[w+i]
					rv[i] -= alpha * qv[i]
				}
			}

			rhoNew := cgDot(c, rv, rv, rows, w, frac, symbolic)
			var beta float64
			if !symbolic && rho != 0 {
				beta = rhoNew / rho
			}
			rho = rhoNew

			// --- p = r + beta p.
			c.Compute(2 * float64(rows) * float64(w) / frac)
			if !symbolic {
				for i := 0; i < rows*w; i++ {
					pv[w+i] = rv[i] + beta*pv[w+i]
				}
			}

			if checkpointDue(it, interval, CGIters) {
				head, body := packCGState(it+1, r.lo, rows, w, rho, xv, rv, pv, symbolic)
				ck.Save(c, head, body)
			}
		}
	})
	return r.collect(xv, nil), iterMS, nil
}

// cgSequential runs the same iteration single-threaded for verification:
// identical iteration count, identical per-row reduction order, identical
// ghost-padded operator — bitwise equal to the parallel run at any p.
func cgSequential(n, iters int, seed int64) ([]float64, error) {
	if n < 3 {
		return nil, fmt.Errorf("workload: CG needs n >= 3, got %d", n)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("workload: CG needs iters > 0, got %d", iters)
	}
	w := n - 2
	m := w * w
	x := make([]float64, m)
	r := cgRHS(n, seed)
	pv := make([]float64, (w+2)*w) // ghost-padded like the parallel bands
	copy(pv[w:w+m], r)
	q := make([]float64, m)
	dot := func(a, b []float64) float64 {
		var tot float64
		for i := 0; i < w; i++ {
			var s float64
			for j := 0; j < w; j++ {
				s += a[i*w+j] * b[i*w+j]
			}
			tot += s
		}
		return tot
	}
	rho := dot(r, r)
	for it := 0; it < iters; it++ {
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				idx := (i+1)*w + j
				s := 4 * pv[idx]
				if j > 0 {
					s -= pv[idx-1]
				}
				if j < w-1 {
					s -= pv[idx+1]
				}
				s -= pv[idx-w]
				s -= pv[idx+w]
				q[i*w+j] = s
			}
		}
		pq := dot(pv[w:w+m], q)
		var alpha float64
		if pq != 0 {
			alpha = rho / pq
		}
		for i := 0; i < m; i++ {
			x[i] += alpha * pv[w+i]
			r[i] -= alpha * q[i]
		}
		rhoNew := dot(r, r)
		var beta float64
		if rho != 0 {
			beta = rhoNew / rho
		}
		rho = rhoNew
		for i := 0; i < m; i++ {
			pv[w+i] = r[i] + beta*pv[w+i]
		}
	}
	return x, nil
}

// cgOverhead returns the analytic To(n) in ms for the fixed-iteration CG
// ITERATION LOOP on the given cluster: per iteration, each interior rank
// exchanges two halo rows, and two inner products each gather the
// per-rank partial rows at rank 0 and broadcast the scalar back. The
// one-time distribution/collection is outside the model, matching the
// iteration-window measurement.
func cgOverhead(cl *cluster.Cluster, m simnet.CostModel) (func(n float64) float64, error) {
	if cl == nil || m == nil {
		return nil, fmt.Errorf("workload: CG overhead needs cluster and model")
	}
	p := cl.Size()
	return func(n float64) float64 {
		w := n - 2
		if w < 0 {
			w = 0
		}
		row := int(wordB * w)
		exchanges := 2
		if p == 1 {
			exchanges = 0
		}
		halo := float64(exchanges) * (m.SendTime(row) + m.TransferTime(row) + m.RecvTime(row))
		var dot float64
		if p > 1 {
			share := int(wordB * w / float64(p))
			scalar := int(wordB)
			dot = float64(p-1)*(m.TransferTime(share)+m.RecvTime(share)) + m.BcastTime(p, scalar)
		}
		return float64(CGIters) * (halo + 2*dot)
	}, nil
}

// packCGState encodes one rank's solver state after an iteration as a
// checkpoint part: the header [iters done, first interior row, row
// count, rho] and rows*w values each of x, r, p, copied, or a Blank when
// symbolic. The rho scalar is identical on every rank (it is the
// broadcast reduction result), which the decoder cross-checks.
func packCGState(iters, lo, rows, w int, rho float64, x, r, pv []float64, symbolic bool) (head, body []float64) {
	head = []float64{float64(iters), float64(lo), float64(rows), rho}
	m := rows * w
	body = buffer(3*m, symbolic)
	if !symbolic {
		copy(body, x)
		copy(body[m:], r)
		copy(body[2*m:], pv[w:(rows+1)*w])
	}
	return head, body
}

// decodeCGSnapshot rebuilds the global solver state from a committed
// checkpoint, and returns the completed iteration count. A symbolic
// decode reads the headers only.
func decodeCGSnapshot(n int, snap *mpi.Snapshot, symbolic bool) (int, *cgResume, error) {
	w := n - 2
	if len(snap.Parts) == 0 || len(snap.Parts[0].Head) < 4 {
		return 0, nil, fmt.Errorf("workload: CG snapshot %d malformed", snap.Seq)
	}
	k0 := int(snap.Parts[0].Head[0])
	res := &cgResume{rho: snap.Parts[0].Head[3]}
	if !symbolic {
		m := w * w
		res.x = make([]float64, m)
		res.r = make([]float64, m)
		res.p = make([]float64, m)
	}
	for pi, part := range snap.Parts {
		h := part.Head
		if len(h) != 4 || int(h[0]) != k0 || h[3] != res.rho {
			return 0, nil, fmt.Errorf("workload: CG snapshot %d part %d inconsistent", snap.Seq, pi)
		}
		lo, rows := int(h[1]), int(h[2])
		m := rows * w
		if len(part.Body) != 3*m || lo < 0 || lo+rows > w {
			return 0, nil, fmt.Errorf("workload: CG snapshot %d part %d shape invalid", snap.Seq, pi)
		}
		if symbolic {
			continue
		}
		copy(res.x[lo*w:], part.Body[:m])
		copy(res.r[lo*w:], part.Body[m:2*m])
		copy(res.p[lo*w:], part.Body[2*m:])
	}
	return k0, res, nil
}
