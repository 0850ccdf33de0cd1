package workload

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// GE is the paper's §4.1 combination: parallel Gaussian elimination with
// row-based heterogeneous cyclic distribution, a pivot-row broadcast and
// a barrier per iteration, and back substitution at rank 0, on the
// server+blade GE ladder. The zero value is the registered workload; the
// fields select the variants the ablations compare.
type GE struct {
	// Strategy distributes rows over ranks. Default: dist.HetCyclic
	// (the paper's row-based heterogeneous cyclic distribution [6]).
	Strategy dist.Strategy
	// Pivot selects the pivot-row broadcast implementation (default: the
	// measured aggregate model, like the paper's testbed).
	Pivot PivotBcast
}

func init() { Register(GE{}) }

// Message tags used by the GE program.
const (
	tagGERows    = 100 // packed matrix rows, distribution phase
	tagGERhs     = 101 // packed rhs entries, distribution phase
	tagGECollect = 102 // packed eliminated rows + rhs, collection phase
	tagGEPivot   = 103 // pivot row, algorithmic broadcast variants
)

// PivotBcast selects how the pivot row travels each elimination step.
type PivotBcast int

// Pivot broadcast implementations.
const (
	// PivotBcastModel uses Comm.Bcast: the paper's measured aggregate
	// T_broadcast ≈ 0.23·p (MPICH's linear broadcast as a black box).
	PivotBcastModel PivotBcast = iota
	// PivotBcastTree uses the binomial-tree algorithm built from
	// point-to-point messages: ⌈log2 p⌉ rounds.
	PivotBcastTree
	// PivotBcastLinear uses the explicit flat algorithm: the owner sends
	// to all p-1 peers in turn.
	PivotBcastLinear
)

// DefaultGESustained is the fraction of marked speed the elimination
// kernel sustains: GE's stride-y row updates sustain less of the
// benchmarked rate than MM's contiguous rows.
const DefaultGESustained = 0.55

func (GE) Name() string { return "ge" }
func (GE) About() string {
	return "Gaussian elimination, het-cyclic rows, pivot broadcast per iteration (paper §4.1)"
}
func (GE) DefaultTarget() float64 { return 0.3 }

func (GE) ClusterLadder(p int) (*cluster.Cluster, error) { return cluster.GEConfig(p) }

// WorkAt is the paper's workload polynomial W(N) for Gaussian
// elimination + back substitution, in flops.
func (GE) WorkAt(n int) float64 { return linalg.GEFlops(n) }

// MemBytes counts the augmented system plus the solution vector.
func (GE) MemBytes(n int) float64 {
	f := float64(n)
	return 8 * (f*f + 2*f)
}

func (GE) Machine(cl *cluster.Cluster, model simnet.CostModel) (core.AnalyticMachine, error) {
	to, err := geOverhead(cl, model)
	if err != nil {
		return core.AnalyticMachine{}, err
	}
	t0, err := geSeqTime(cl)
	if err != nil {
		return core.AnalyticMachine{}, err
	}
	return core.AnalyticMachine{
		Label:     cl.Name,
		C:         cl.MarkedSpeed(),
		P:         cl.Size(),
		Sustained: DefaultGESustained,
		Work:      func(n float64) float64 { return 2*n*n*n/3 + 3*n*n/2 - 7*n/6 + n*n },
		SeqTime:   t0,
		Overhead:  to,
	}, nil
}

func (g GE) Run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, error) {
	out, _, err := g.run(ctx, cl, model, o, spec)
	return out, err
}

// run executes the paper's parallel GE (§4.1.1) for an N x N
// diagonally dominant system (so the paper's no-pivot row elimination is
// numerically safe), plainly or, with spec.Recover, under checkpoint/
// rollback recovery:
//
//  1. rank 0 distributes rows of A and entries of b to their owners
//     according to the distribution strategy (heterogeneous cyclic by
//     default, proportional to marked speeds);
//  2. for each pivot k: the owner broadcasts the pivot row, every rank
//     eliminates its own rows below k, and all ranks synchronize — with
//     a coordinated checkpoint of the row state every spec.CkptSteps
//     pivots, after the closing barrier;
//  3. rank 0 collects the upper-triangular system and back-substitutes.
//
// It also returns rank 0's solution x (nil when symbolic).
func (g GE) run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, []float64, error) {
	n, symbolic := spec.N, spec.Symbolic
	if n < 1 {
		return Outcome{}, nil, fmt.Errorf("workload: GE needs n >= 1, got %d", n)
	}
	st := g.Strategy
	if st == nil {
		st = dist.HetCyclic{}
	}
	st = distribution(spec, st)

	// Reference data, built once at "rank 0". In symbolic mode only
	// shapes are used.
	var a *linalg.Matrix
	var b []float64
	if !symbolic {
		a = linalg.RandomDiagDominant(n, spec.Seed)
		b = linalg.RandomVector(n, spec.Seed+1)
	}

	var x []float64
	res, err := execute(ctx, cl, model, o, spec, func(inst mpi.Instance) (mpi.RecoverableProgram, error) {
		asn, err := survivorStrategy(st, inst.Ranks).Assign(n, inst.Cluster.Speeds())
		if err != nil {
			return nil, fmt.Errorf("workload: GE distribution: %w", err)
		}
		k0, aCur, bCur := 0, a, b
		if inst.Resume != nil {
			k0, aCur, bCur, err = decodeGESnapshot(n, inst.Resume, symbolic)
			if err != nil {
				return nil, err
			}
			if symbolic {
				aCur, bCur = a, b
			}
		}
		return func(c *mpi.Comm, ck *mpi.Checkpointer) error {
			rec := &geRecover{k0: k0, interval: spec.CkptSteps, ck: ck}
			sol, err := geRank(c, n, asn, aCur, bCur, symbolic, g.Pivot, rec)
			if c.Rank() == 0 {
				x = sol
			}
			return err
		}, nil
	})
	if err != nil {
		return Outcome{Stats: res}, nil, err
	}
	out := Outcome{Work: linalg.GEFlops(n), VirtualTime: res.TimeMS, Stats: res, Check: Checksum(x)}
	return out, x, nil
}

// geRecover carries the recovery hooks into geRank: resume the
// elimination at pivot k0 and checkpoint the row state every interval
// pivots. nil means a plain, non-checkpointing run.
type geRecover struct {
	k0       int
	interval int
	ck       *mpi.Checkpointer
}

// geRank is the per-rank program body.
func geRank(c *mpi.Comm, n int, asn dist.Assignment, a *linalg.Matrix, b []float64, symbolic bool, pivot PivotBcast, rec *geRecover) ([]float64, error) {
	rank, p := c.Rank(), c.Size()
	myRowIdx := asn.Rows(rank) // sorted ascending
	const frac = DefaultGESustained

	// --- Phase 1: distribution (paper step 1) -----------------------------
	// Rank 0 packs each peer's rows into one flat message plus one rhs
	// message: 2(p-1) point-to-point messages, matching the 2(p-1)
	// (T_send+T_recv) term of the paper's overhead model.
	myRows := make(map[int][]float64, len(myRowIdx))
	myRhs := make(map[int]float64, len(myRowIdx))
	if rank == 0 {
		for r := p - 1; r >= 0; r-- {
			idx := asn.Rows(r)
			rows := buffer(len(idx)*n, symbolic)
			rhs := buffer(len(idx), symbolic)
			if !symbolic {
				for pos, i := range idx {
					copy(rows[pos*n:(pos+1)*n], a.Row(i))
					rhs[pos] = b[i]
				}
			}
			if r == 0 {
				unpackRows(myRows, myRhs, idx, rows, rhs, n)
			} else {
				c.Send(r, tagGERows, rows)
				c.Send(r, tagGERhs, rhs)
			}
		}
	} else {
		rows := c.Recv(0, tagGERows)
		rhs := c.Recv(0, tagGERhs)
		if len(rows) != len(myRowIdx)*n || len(rhs) != len(myRowIdx) {
			return nil, fmt.Errorf("workload: rank %d received %d row values, want %d", rank, len(rows), len(myRowIdx)*n)
		}
		unpackRows(myRows, myRhs, myRowIdx, rows, rhs, n)
	}

	// --- Phase 2: elimination (paper step 2) ------------------------------
	// next indexes the first owned row with index > k.
	next := 0
	k0 := 0
	if rec != nil {
		k0 = rec.k0
	}
	pivBuf := buffer(n+1, symbolic)
	for k := k0; k < n-1; k++ {
		for next < len(myRowIdx) && myRowIdx[next] <= k {
			next++
		}
		owner := asn.Owner[k]
		var piv []float64
		if rank == owner {
			if symbolic {
				piv = pivBuf
			} else {
				piv = append(append(pivBuf[:0], myRows[k]...), myRhs[k])
			}
		}
		switch pivot {
		case PivotBcastTree:
			piv = mpi.BcastTree(c, owner, tagGEPivot, piv)
		case PivotBcastLinear:
			piv = mpi.BcastLinear(c, owner, tagGEPivot, piv)
		default:
			piv = c.Bcast(owner, piv)
		}

		active := len(myRowIdx) - next
		if active > 0 {
			// Each row update: 1 divide + (n-1-k) multiply-subtract pairs on
			// the row + 1 pair on the rhs = 2(n-k)-1 flops; charge 2(n-k).
			c.Compute(float64(active) * 2 * float64(n-k) / frac)
			if !symbolic {
				pivRhs := piv[n]
				for _, j := range myRowIdx[next:] {
					rhs := myRhs[j]
					if _, err := linalg.EliminateRow(myRows[j], piv[:n], &rhs, pivRhs, k); err != nil {
						return nil, fmt.Errorf("workload: rank %d row %d: %w", rank, j, err)
					}
					myRhs[j] = rhs
				}
			}
		}
		c.Barrier() // paper step 2.2: synchronize due to data dependence
		if rec != nil && rec.interval > 0 && (k+1)%rec.interval == 0 && k+1 < n-1 {
			head, body := packGEState(k+1, n, myRowIdx, myRows, myRhs, symbolic)
			rec.ck.Save(c, head, body)
		}
	}

	// --- Phase 3: collection + back substitution (paper step 3) -----------
	packed := buffer(len(myRowIdx)*(n+1), symbolic)
	if !symbolic {
		for pos, i := range myRowIdx {
			copy(packed[pos*(n+1):pos*(n+1)+n], myRows[i])
			packed[pos*(n+1)+n] = myRhs[i]
		}
	}
	if rank != 0 {
		c.Send(0, tagGECollect, packed)
		return nil, nil
	}
	// Back substitution is the sequential portion t0: ~N(N+1) flops at
	// rank 0 only — the paper's α = O(1/N).
	backSub := float64(n) * float64(n+1) / frac
	if symbolic {
		// Same collection traffic and charge, without assembling the
		// triangular system no symbolic run solves.
		for r := 1; r < p; r++ {
			c.Recv(r, tagGECollect)
		}
		c.Compute(backSub)
		return nil, nil
	}

	u := linalg.NewMatrix(n, n)
	y := make([]float64, n)
	fill := func(idx []int, data []float64) {
		for pos, i := range idx {
			copy(u.Row(i), data[pos*(n+1):pos*(n+1)+n])
			y[i] = data[pos*(n+1)+n]
		}
	}
	fill(myRowIdx, packed)
	for r := 1; r < p; r++ {
		data := c.Recv(r, tagGECollect)
		fill(asn.Rows(r), data)
	}
	c.Compute(backSub)
	x, err := linalg.BackSubstitute(u, y)
	if err != nil {
		return nil, fmt.Errorf("workload: back substitution: %w", err)
	}
	return x, nil
}

func unpackRows(rows map[int][]float64, rhs map[int]float64, idx []int, flat, flatRhs []float64, n int) {
	for pos, i := range idx {
		rows[i] = flat[pos*n : (pos+1)*n : (pos+1)*n]
		rhs[i] = flatRhs[pos]
	}
}

// packGEState encodes one rank's cumulative elimination state as a
// checkpoint part: the header [pivots done, row count, then the owned
// row indices] and per owned row its n values and rhs, copied, or a
// Blank when symbolic.
func packGEState(steps, n int, rowIdx []int, rows map[int][]float64, rhs map[int]float64, symbolic bool) (head, body []float64) {
	head = make([]float64, 2, 2+len(rowIdx))
	head[0] = float64(steps)
	head[1] = float64(len(rowIdx))
	for _, i := range rowIdx {
		head = append(head, float64(i))
	}
	body = buffer(len(rowIdx)*(n+1), symbolic)
	if !symbolic {
		for pos, i := range rowIdx {
			copy(body[pos*(n+1):], rows[i])
			body[pos*(n+1)+n] = rhs[i]
		}
	}
	return head, body
}

// decodeGESnapshot rebuilds the partially-eliminated global system from a
// committed checkpoint. In symbolic mode only the pivot count matters,
// and only the headers are read.
func decodeGESnapshot(n int, snap *mpi.Snapshot, symbolic bool) (k0 int, a *linalg.Matrix, b []float64, err error) {
	if len(snap.Parts) == 0 || len(snap.Parts[0].Head) < 2 {
		return 0, nil, nil, fmt.Errorf("workload: GE snapshot %d malformed", snap.Seq)
	}
	k0 = int(snap.Parts[0].Head[0])
	if !symbolic {
		a = linalg.NewMatrix(n, n)
		b = make([]float64, n)
	}
	for pi, part := range snap.Parts {
		h := part.Head
		if len(h) < 2 || int(h[0]) != k0 {
			return 0, nil, nil, fmt.Errorf("workload: GE snapshot %d part %d inconsistent", snap.Seq, pi)
		}
		count := int(h[1])
		if len(h) != 2+count || len(part.Body) != count*(n+1) {
			return 0, nil, nil, fmt.Errorf("workload: GE snapshot %d part %d has %d+%d values, want %d+%d",
				snap.Seq, pi, len(h), len(part.Body), 2+count, count*(n+1))
		}
		if symbolic {
			continue
		}
		for pos, v := range h[2:] {
			idx := int(v)
			if idx < 0 || idx >= n {
				return 0, nil, nil, fmt.Errorf("workload: GE snapshot %d row index %d out of range", snap.Seq, idx)
			}
			row := part.Body[pos*(n+1) : (pos+1)*(n+1)]
			copy(a.Row(idx), row[:n])
			b[idx] = row[n]
		}
	}
	return k0, a, b, nil
}

// geOverhead returns To(n) in ms for the parallel GE on the given cluster
// and cost model, mirroring the paper's §4.5 prediction step where
//
//	T_o = T_broadcast + 2(p-1)(T_send + T_recv) + N(2·T_broadcast + T_barrier)
//
// was written down for their GE implementation: distribution +
// per-iteration collectives + collection. The overhead models of every
// workload intentionally share the simplifications of the paper's model
// (perfect load balance, no pipelining), so predicted and measured
// scalability agree in shape rather than to the last digit. The problem
// size is continuous so the result can be handed to root solvers.
func geOverhead(cl *cluster.Cluster, m simnet.CostModel) (func(n float64) float64, error) {
	if cl == nil || m == nil {
		return nil, fmt.Errorf("workload: GE overhead needs cluster and model")
	}
	speeds := cl.Speeds()
	p := len(speeds)
	var total float64
	for _, s := range speeds {
		total += s
	}
	return func(n float64) float64 {
		var to float64
		// Distribution: rank 0 sends each peer its rows (count_r × n
		// elements) and rhs (count_r elements), serialized at the sender.
		for r := 1; r < p; r++ {
			rows := n * speeds[r] / total
			bA := int(wordB * rows * n)
			bR := int(wordB * rows)
			to += m.SendTime(bA) + m.TransferTime(bA)
			to += m.SendTime(bR) + m.TransferTime(bR)
		}
		// Elimination: one pivot-row broadcast of n+1 elements plus one
		// barrier per iteration, n-1 iterations.
		iters := n - 1
		if iters < 0 {
			iters = 0
		}
		bPiv := int(wordB * (n + 1))
		to += iters * (m.BcastTime(p, bPiv) + m.BarrierTime(p))
		// Collection: each peer returns count_r × (n+1) elements; rank 0's
		// receive processing serializes.
		for r := 1; r < p; r++ {
			rows := n * speeds[r] / total
			bU := int(wordB * rows * (n + 1))
			to += m.TransferTime(bU) + m.RecvTime(bU)
		}
		return to
	}, nil
}

// geSeqTime returns t0(n) in ms: the back-substitution stage executed only
// at rank 0, n(n+1) flops at rank 0's sustained rate. This is the paper's
// sequential portion with α = O(1/N).
func geSeqTime(cl *cluster.Cluster) (func(n float64) float64, error) {
	if cl == nil || cl.Size() == 0 {
		return nil, fmt.Errorf("workload: GE sequential time needs a cluster")
	}
	speed0 := cl.Nodes[0].SpeedMflops
	return func(n float64) float64 {
		return n * (n + 1) / (DefaultGESustained * speed0 * 1e3)
	}, nil
}
