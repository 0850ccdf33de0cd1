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

// Message tags used by the SpMV program.
const (
	tagSpMVInit = 230 // initial band distribution
	tagSpMVUp   = 231 // halo pair travelling to the lower-index neighbour
	tagSpMVDown = 232 // halo pair travelling to the higher-index neighbour
)

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
	out, _, _, err := s.run(ctx, cl, model, o, spec, nil)
	return out, err
}

func (s SpMV) RunRecovered(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec, rcfg RecoveryConfig) (Outcome, mpi.RecoveredResult, error) {
	out, rec, _, err := s.run(ctx, cl, model, o, spec, &rcfg)
	return out, rec, err
}

// run executes the heterogeneous banded SpMV iteration on a length-n
// vector (n >= 5): rank 0 scatters proportional bands, every iteration
// exchanges a two-scalar halo with each neighbour and applies the
// normalised band product, and rank 0 gathers the final vector. Under
// recovery the band state is checkpointed every IntervalSteps
// iterations. It also returns rank 0's final vector (nil when symbolic).
func (SpMV) run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec, rcfg *RecoveryConfig) (Outcome, mpi.RecoveredResult, []float64, error) {
	n, symbolic := spec.N, spec.Symbolic
	if n < 5 {
		return Outcome{}, mpi.RecoveredResult{}, nil, fmt.Errorf("workload: SpMV needs n >= 5, got %d", n)
	}
	st := distribution(spec, dist.HetBlock{})

	var initial []float64
	if !symbolic {
		initial = spmvInitialVector(n, spec.Seed)
	}

	var outX []float64
	var iterMS float64
	rec, err := execute(ctx, cl, model, o, rcfg, func(inst mpi.Instance) (mpi.RecoverableProgram, error) {
		ranges, err := spmvRanges(n, inst.Cluster.Size(), survivorStrategy(st, inst.Ranks), inst.Cluster.Speeds())
		if err != nil {
			return nil, err
		}
		k0, x := 0, initial
		if inst.Resume != nil {
			k0, x, err = decodeSpMVSnapshot(n, spec.Seed, inst.Resume, symbolic)
			if err != nil {
				return nil, err
			}
		}
		return func(c mpi.Comm, ck *mpi.Checkpointer) error {
			rec := &jacRecover{start: k0, interval: rcfg.interval(), ck: ck}
			v, tm, err := spmvRank(c, n, ranges, x, symbolic, spec.Seed, rec)
			if c.Rank() == 0 {
				outX, iterMS = v, tm
			}
			return err
		}, nil
	})
	if err != nil {
		return Outcome{}, rec, nil, err
	}
	out := Outcome{Work: spmvWork(n), VirtualTime: rec.TimeMS, Stats: rec.Result, Check: Checksum(outX)}
	if rcfg == nil {
		out.VirtualTime = iterMS
	}
	return out, rec, outX, nil
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

// spmvRanges distributes the n rows and validates the block/halo
// preconditions: a contiguous block assignment (each rank owns one
// band) with at least spmvHalo rows per rank, so ghost values always
// come from rank±1. When n >= spmvHalo·p the floor is always reachable:
// a block the strategy left short (a slow rank's proportional share) is
// topped up by spmvTopUp; assignments that already meet it are used as
// the strategy made them.
func spmvRanges(n, p int, strat dist.Strategy, speeds []float64) ([][2]int, error) {
	asn, err := strat.Assign(n, speeds)
	if err != nil {
		return nil, fmt.Errorf("workload: SpMV distribution: %w", err)
	}
	if !isBlockAssignment(asn) {
		return nil, fmt.Errorf("workload: SpMV needs a contiguous block distribution, %T is not", strat)
	}
	counts := asn.Counts
	if n >= spmvHalo*p {
		counts = spmvTopUp(counts)
	}
	for r, cnt := range counts {
		if cnt < spmvHalo {
			return nil, fmt.Errorf("workload: SpMV vector too small: rank %d owns %d rows, halo depth needs >= %d (n=%d, p=%d)",
				r, cnt, spmvHalo, n, p)
		}
	}
	return dist.BlockRanges(counts), nil
}

// spmvTopUp returns counts with every block below spmvHalo rows raised,
// in rank order, by moving rows one at a time from the currently largest
// block (lowest rank on ties); blocks that meet the floor everywhere come
// back unchanged. With at least spmvHalo rows per rank in total the
// largest block holds more than spmvHalo whenever another is short, so
// no donor drops below the floor.
func spmvTopUp(counts []int) []int {
	out := append([]int(nil), counts...)
	for r := range out {
		for out[r] < spmvHalo {
			big := 0
			for i, c := range out {
				if c > out[big] {
					big = i
				}
			}
			out[big]--
			out[r]++
		}
	}
	return out
}

// spmvRank is the per-rank program body. It returns (vector,
// iterTimeMS) at rank 0; the iteration time is the virtual time of the
// product loop alone, barrier to barrier, excluding the one-time
// distribution and collection. Owned entries live at local indices
// [2, rows+2); the two slots on each side hold neighbour ghosts (zero at
// the global ends, where the corresponding band coefficients are exactly
// zero).
func spmvRank(c mpi.Comm, n int, ranges [][2]int, x []float64, symbolic bool, seed int64, rec *jacRecover) ([]float64, float64, error) {
	rank, p := c.Rank(), c.Size()
	const frac = DefaultSpMVSustained
	lo, hi := ranges[rank][0], ranges[rank][1]
	rows := hi - lo
	flops := 2 * spmvNNZRange(lo, hi, n)

	cur := buffer(rows+2*spmvHalo, symbolic)
	nxt := buffer(rows+2*spmvHalo, symbolic)

	// --- Distribution: rank 0 sends each band (owned entries only; the
	// first halo exchange of the loop fills the ghosts).
	if rank == 0 {
		for r := p - 1; r >= 0; r-- {
			rlo, rhi := ranges[r][0], ranges[r][1]
			band := buffer(rhi-rlo, symbolic)
			if !symbolic {
				copy(band, x[rlo:rhi])
			}
			if r != 0 {
				c.Send(r, tagSpMVInit, band)
			} else if !symbolic {
				copy(cur[spmvHalo:spmvHalo+rows], band)
			}
		}
	} else {
		band := c.Recv(0, tagSpMVInit)
		if len(band) != rows {
			return nil, 0, fmt.Errorf("workload: rank %d band size %d, want %d", rank, len(band), rows)
		}
		if !symbolic {
			copy(cur[spmvHalo:spmvHalo+rows], band)
		}
	}
	if !symbolic {
		copy(nxt, cur)
	}

	c.Barrier()
	iterStart := c.Clock()

	up, down := rank-1, rank+1
	needTop := up >= 0
	needBot := down < p

	startIt := 0
	if rec != nil {
		startIt = rec.start
	}
	for it := startIt; it < SpMVIters; it++ {
		if needTop {
			c.Send(up, tagSpMVUp, section(cur, spmvHalo, 2*spmvHalo, symbolic))
		}
		if needBot {
			c.Send(down, tagSpMVDown, section(cur, rows, rows+spmvHalo, symbolic))
		}
		if needTop {
			ghost := c.Recv(up, tagSpMVDown)
			if !symbolic {
				copy(cur[:spmvHalo], ghost)
			}
		}
		if needBot {
			ghost := c.Recv(down, tagSpMVUp)
			if !symbolic {
				copy(cur[rows+spmvHalo:], ghost)
			}
		}

		c.Compute(flops / frac)
		if !symbolic {
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

		if rec != nil && rec.interval > 0 && (it+1)%rec.interval == 0 && it+1 < SpMVIters {
			rec.ck.Save(c, packSpMVState(it+1, lo, rows, cur))
		}
	}

	c.Barrier()
	iterMS := c.Clock() - iterStart

	// --- Collection at rank 0.
	own := buffer(rows, symbolic)
	if !symbolic {
		copy(own, cur[spmvHalo:spmvHalo+rows])
	}
	parts := c.Gatherv(0, own)
	if rank != 0 {
		return nil, 0, nil
	}
	if symbolic {
		return nil, iterMS, nil
	}
	out := make([]float64, n)
	for r := 0; r < p; r++ {
		copy(out[ranges[r][0]:], parts[r])
	}
	return out, iterMS, nil
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

// packSpMVState encodes one rank's band after an iteration:
// [completedIters, lo, rows, owned entries...].
func packSpMVState(iters, lo, rows int, cur []float64) []float64 {
	out := make([]float64, 3+rows)
	out[0], out[1], out[2] = float64(iters), float64(lo), float64(rows)
	copy(out[3:], cur[spmvHalo:spmvHalo+rows])
	return out
}

// decodeSpMVSnapshot rebuilds the full vector from the checkpointed
// bands and returns the completed iteration count.
func decodeSpMVSnapshot(n int, seed int64, snap *mpi.Snapshot, symbolic bool) (int, []float64, error) {
	if len(snap.Parts) == 0 || len(snap.Parts[0]) < 3 {
		return 0, nil, fmt.Errorf("workload: SpMV snapshot %d malformed", snap.Seq)
	}
	k0 := int(snap.Parts[0][0])
	var x []float64
	if !symbolic {
		x = spmvInitialVector(n, seed)
	}
	for pi, part := range snap.Parts {
		if len(part) < 3 || int(part[0]) != k0 {
			return 0, nil, fmt.Errorf("workload: SpMV snapshot %d part %d inconsistent", snap.Seq, pi)
		}
		lo, rows := int(part[1]), int(part[2])
		if len(part) != 3+rows || lo < 0 || lo+rows > n {
			return 0, nil, fmt.Errorf("workload: SpMV snapshot %d part %d shape invalid", snap.Seq, pi)
		}
		if symbolic {
			continue
		}
		copy(x[lo:lo+rows], part[3:])
	}
	return k0, x, nil
}
