package workload

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// MM is the paper's §4.2 combination: matrix multiplication in the HoHe
// style (homogeneous processes, one per processor, heterogeneous data
// distribution) — row bands of A proportional to marked speed, B
// replicated by broadcast, no communication during compute — on the
// mixed blade+V210 MM ladder. The zero value is the registered workload.
type MM struct {
	// Strategy distributes the rows of A over ranks. It must produce a
	// contiguous block assignment. Default: dist.HetBlock (proportional
	// row bands — the HoHe strategy).
	Strategy dist.Strategy
}

func init() { Register(MM{}) }

// DefaultMMSustained is the fraction of marked speed the multiply kernel
// sustains: MM streams contiguous rows and sustains more of the
// benchmarked rate than GE's stride-y elimination updates.
const DefaultMMSustained = 0.60

func (MM) Name() string { return "mm" }
func (MM) About() string {
	return "matrix multiply, het-block rows of A, B replicated by broadcast (paper §4.2)"
}
func (MM) DefaultTarget() float64 { return 0.2 }

func (MM) ClusterLadder(p int) (*cluster.Cluster, error) { return cluster.MMConfig(p) }

// WorkAt is W(N) = 2N³ for matrix multiplication, in flops.
func (MM) WorkAt(n int) float64 { return linalg.MMFlops(n) }

// MemBytes counts A, B and C.
func (MM) MemBytes(n int) float64 {
	f := float64(n)
	return 8 * 3 * f * f
}

func (MM) Machine(cl *cluster.Cluster, model simnet.CostModel) (core.AnalyticMachine, error) {
	to, err := mmOverhead(cl, model)
	if err != nil {
		return core.AnalyticMachine{}, err
	}
	return core.AnalyticMachine{
		Label:     cl.Name,
		C:         cl.MarkedSpeed(),
		P:         cl.Size(),
		Sustained: DefaultMMSustained,
		Work:      func(n float64) float64 { return 2 * n * n * n },
		Overhead:  to,
	}, nil
}

func (m MM) Run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, error) {
	out, _, err := m.run(ctx, cl, model, o, spec)
	return out, err
}

// run executes the paper's parallel MM (§4.1.2) for N x N matrices: rank
// 0 scatters row bands of A proportionally to marked speed, broadcasts
// B, every rank multiplies its band (no communication during compute),
// and rank 0 gathers the result bands. Under recovery (spec.Recover) the
// checkpoints are incremental: finished result rows are checkpointed
// every spec.CkptSteps rows, and after a membership change only the
// missing rows are redistributed and recomputed. It also returns rank
// 0's product (nil when symbolic).
func (m MM) run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec) (Outcome, *linalg.Matrix, error) {
	n, symbolic := spec.N, spec.Symbolic
	if n < 1 {
		return Outcome{}, nil, fmt.Errorf("workload: MM needs n >= 1, got %d", n)
	}
	st := m.Strategy
	if st == nil {
		st = dist.HetBlock{}
	}
	st = distribution(spec, st)

	var a, b *linalg.Matrix
	if !symbolic {
		a = linalg.RandomMatrix(n, spec.Seed)
		b = linalg.RandomMatrix(n, spec.Seed+1)
	}

	var cOut *linalg.Matrix
	res, err := execute(ctx, cl, model, o, spec, func(inst mpi.Instance) (mpi.RecoverableProgram, error) {
		done, err := decodeMMHistory(n, inst.History, symbolic)
		if err != nil {
			return nil, err
		}
		remaining := make([]int, 0, n-len(done))
		for row := 0; row < n; row++ {
			if _, ok := done[row]; !ok {
				remaining = append(remaining, row)
			}
		}
		sst := survivorStrategy(st, inst.Ranks)
		asn, err := sst.Assign(len(remaining), inst.Cluster.Speeds())
		if err != nil {
			return nil, fmt.Errorf("workload: MM distribution: %w", err)
		}
		if !isBlockAssignment(asn) {
			return nil, fmt.Errorf("workload: MM requires a contiguous block distribution, %q is not", sst.Name())
		}
		ranges := dist.BlockRanges(asn.Counts)
		return func(c *mpi.Comm, ck *mpi.Checkpointer) error {
			prod, err := mmRank(c, n, remaining, ranges, done, a, b, symbolic, spec.CkptSteps, ck)
			if c.Rank() == 0 {
				cOut = prod
			}
			return err
		}, nil
	})
	if err != nil {
		return Outcome{Stats: res}, nil, err
	}
	var data []float64
	if cOut != nil {
		data = cOut.Data
	}
	out := Outcome{Work: linalg.MMFlops(n), VirtualTime: res.TimeMS, Stats: res, Check: Checksum(data)}
	return out, cOut, nil
}

// mmRank is the per-rank body of MM: scatter the not-yet-done rows of A,
// broadcast B, multiply in chunks of interval rows with a coordinated
// checkpoint after each round (one round, no checkpoint, when interval
// is 0), gather the fresh rows, and assemble the result at rank 0 from
// history + gathered bands. A plain run has every row still to do and
// an empty history.
func mmRank(c *mpi.Comm, n int, remaining []int, ranges [][2]int, done map[int][]float64, a, b *linalg.Matrix, symbolic bool, interval int, ck *mpi.Checkpointer) (*linalg.Matrix, error) {
	rank, p := c.Rank(), c.Size()
	myList := remaining[ranges[rank][0]:ranges[rank][1]]
	myCount := len(myList)
	const frac = DefaultMMSustained

	var parts [][]float64
	if rank == 0 {
		parts = make([][]float64, p)
		for r := 0; r < p; r++ {
			list := remaining[ranges[r][0]:ranges[r][1]]
			flat := buffer(len(list)*n, symbolic)
			if !symbolic {
				for j, idx := range list {
					copy(flat[j*n:(j+1)*n], a.Row(idx))
				}
			}
			parts[r] = flat
		}
	}
	myA := c.Scatterv(0, parts)
	if len(myA) != myCount*n {
		return nil, fmt.Errorf("workload: rank %d band size %d, want %d", rank, len(myA), myCount*n)
	}

	var bFlat []float64
	if rank == 0 {
		if symbolic {
			bFlat = mpi.Blank(n * n)
		} else {
			bFlat = b.Data
		}
	}
	bFlat = c.Bcast(0, bFlat)
	bm := &linalg.Matrix{Rows: n, Cols: n, Data: bFlat}

	// Multiply in rounds. Every rank runs the same number of rounds — the
	// Save collective requires it — so a rank that finishes its rows early
	// still checkpoints (an empty chunk) with the others.
	myC := buffer(myCount*n, symbolic)
	rounds := 1
	if interval > 0 {
		maxCount := 0
		for r := 0; r < p; r++ {
			if c := ranges[r][1] - ranges[r][0]; c > maxCount {
				maxCount = c
			}
		}
		rounds = (maxCount + interval - 1) / interval
		if rounds < 1 {
			rounds = 1
		}
	}
	for round := 0; round < rounds; round++ {
		lo, hi := 0, myCount
		if interval > 0 {
			lo = round * interval
			if lo > myCount {
				lo = myCount
			}
			hi = lo + interval
			if hi > myCount {
				hi = myCount
			}
		}
		if hi > lo {
			c.Compute(2 * float64(n) * float64(n) * float64(hi-lo) / frac)
			if !symbolic {
				band := &linalg.Matrix{Rows: hi - lo, Cols: n, Data: myA[lo*n : hi*n]}
				prod, err := linalg.MulRowsInto(band, bm)
				if err != nil {
					return nil, fmt.Errorf("workload: rank %d multiply: %w", rank, err)
				}
				copy(myC[lo*n:hi*n], prod.Data)
			}
		}
		if interval > 0 {
			head, body := packMMChunk(myList[lo:hi], section(myC, lo*n, hi*n, symbolic), symbolic)
			ck.Save(c, head, body)
		}
	}

	gathered := c.Gatherv(0, myC)
	if rank != 0 || symbolic {
		return nil, nil
	}
	out := linalg.NewMatrix(n, n)
	for idx, vals := range done {
		copy(out.Row(idx), vals)
	}
	for r := 0; r < p; r++ {
		list := remaining[ranges[r][0]:ranges[r][1]]
		for j, idx := range list {
			copy(out.Row(idx), gathered[r][j*n:(j+1)*n])
		}
	}
	return out, nil
}

// packMMChunk encodes the result rows a rank finished in one chunk as a
// checkpoint part: the header [row count, then the row indices] and
// their values, copied, or the Blank itself when symbolic. MM
// checkpoints are incremental — committed rows never need
// recomputation, so recovery gathers the done-set from the entire
// snapshot history.
func packMMChunk(rowIdx []int, values []float64, symbolic bool) (head, body []float64) {
	head = make([]float64, 1, 1+len(rowIdx))
	head[0] = float64(len(rowIdx))
	for _, idx := range rowIdx {
		head = append(head, float64(idx))
	}
	if symbolic {
		return head, values
	}
	return head, slices.Clone(values)
}

// decodeMMHistory walks every committed snapshot and returns the rows
// already multiplied (and, in real mode, their values). A symbolic
// decode reads the headers only.
func decodeMMHistory(n int, history []mpi.Snapshot, symbolic bool) (map[int][]float64, error) {
	done := map[int][]float64{}
	for _, snap := range history {
		if len(snap.Parts) == 0 {
			return nil, fmt.Errorf("workload: MM snapshot %d malformed", snap.Seq)
		}
		for pi, part := range snap.Parts {
			h := part.Head
			if len(h) < 1 {
				return nil, fmt.Errorf("workload: MM snapshot %d part %d malformed", snap.Seq, pi)
			}
			count := int(h[0])
			if len(h) != 1+count || len(part.Body) != count*n {
				return nil, fmt.Errorf("workload: MM snapshot %d part %d has %d+%d values, want %d+%d",
					snap.Seq, pi, len(h), len(part.Body), 1+count, count*n)
			}
			for pos, v := range h[1:] {
				idx := int(v)
				if idx < 0 || idx >= n {
					return nil, fmt.Errorf("workload: MM snapshot %d row index %d out of range", snap.Seq, idx)
				}
				if symbolic {
					done[idx] = nil
				} else {
					done[idx] = slices.Clone(part.Body[pos*n : (pos+1)*n])
				}
			}
		}
	}
	return done, nil
}

// mmOverhead returns To(n) in ms for the parallel MM: scatter of A bands
// (serialized at rank 0), broadcast of B, gather of C bands.
func mmOverhead(cl *cluster.Cluster, m simnet.CostModel) (func(n float64) float64, error) {
	if cl == nil || m == nil {
		return nil, fmt.Errorf("workload: MM overhead needs cluster and model")
	}
	speeds := cl.Speeds()
	p := len(speeds)
	var total float64
	for _, s := range speeds {
		total += s
	}
	return func(n float64) float64 {
		var to float64
		for r := 1; r < p; r++ {
			rows := n * speeds[r] / total
			bA := int(wordB * rows * n)
			to += m.SendTime(bA) + m.TransferTime(bA)
		}
		bB := int(wordB * n * n)
		to += m.BcastTime(p, bB)
		for r := 1; r < p; r++ {
			rows := n * speeds[r] / total
			bC := int(wordB * rows * n)
			to += m.TransferTime(bC) + m.RecvTime(bC)
		}
		return to
	}, nil
}
