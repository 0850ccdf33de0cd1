package workload

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// The row-band protocol. cg, jacobi, mg and spmv are row-band programs:
// count rows of width values each, split into one contiguous block per
// rank, iterated with a halo exchange between rank neighbours and
// gathered back at rank 0 — distribute, iterate compute-and-exchange,
// collect. They differ in shape (the band fields) and in what a step
// computes; everything else lives here.

// Message tags of the band programs.
const (
	tagBandBlock = 200 // a rank's block, from rank 0
	tagBandUp    = 201 // halo rows travelling to the lower-index neighbour
	tagBandDown  = 202 // halo rows travelling to the higher-index neighbour
)

// band is the shape of a row-band program.
type band struct {
	name  string // the workload, for error messages
	count int    // rows distributed over the ranks
	width int    // values per row
	// first is the index of the first distributed row in the whole state,
	// which frames the count distributed rows with first fixed rows on
	// each side that no rank owns (the grids' boundary rows).
	first int
	// depth is the ghost rows on each side of a block, which is also the
	// fewest rows a rank may own: ghost rows always come from rank±1.
	depth int
	// ship is the ghost rows rank 0 sends with each block: depth when
	// the first step reads them, 0 when its halo exchange fills them.
	ship int
}

// bandRanges splits count rows into one contiguous block per rank, in
// rank order, by strategy st over the given speeds, and gives every block
// at least floor rows (bandTopUp). Fewer than floor rows per rank in
// total is an error.
func bandRanges(count, floor int, st dist.Strategy, speeds []float64) ([][2]int, error) {
	asn, err := st.Assign(count, speeds)
	if err != nil {
		return nil, fmt.Errorf("distribution: %w", err)
	}
	if !isBlockAssignment(asn) {
		return nil, fmt.Errorf("needs a contiguous block distribution, %T is not", st)
	}
	if p := len(asn.Counts); count < floor*p {
		return nil, fmt.Errorf("too small: %d rows over %d ranks, each needs >= %d", count, p, floor)
	}
	return dist.BlockRanges(bandTopUp(asn.Counts, floor)), nil
}

// bandTopUp returns counts with every block below floor rows raised, in
// rank order, by moving rows one at a time from the currently largest
// block (lowest rank on ties); a split that already meets the floor
// comes back unchanged, as the strategy made it (a slow rank's short
// proportional share is what gets topped up). With at least floor rows
// per rank in total the largest block holds more than floor whenever
// another is short, so no donor drops below it.
func bandTopUp(counts []int, floor int) []int {
	out := slices.Clone(counts)
	for r := range out {
		for out[r] < floor {
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

// bandRank is one rank's part of a band program: its block of rows and
// the communicator. A rank's working buffers hold its block between
// depth ghost rows on each side.
type bandRank struct {
	band
	c        *mpi.Comm
	ranges   [][2]int // every rank's block, indexing distributed rows
	symbolic bool
	lo, rows int // the whole-state index of the block's first row, and its row count
}

// runBand is the one run path of the band programs. For each membership
// instance it splits b's rows over the members with bandRanges, and
// restore turns the instance's resume snapshot (nil on a fresh start)
// into the step to start from and the state rank 0 distributes; body
// then runs on every rank, checkpointing every spec.CkptSteps steps.
// body returns rank 0's collected output and its loop window: a plain
// run meters that window, a recovered run the recovered makespan. The
// output comes back too (nil when symbolic).
func runBand[S any](ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec,
	b band, work float64, restore func(*mpi.Snapshot) (int, S, error),
	body func(r *bandRank, state S, start, interval int, ck *mpi.Checkpointer) ([]float64, float64, error),
) (Outcome, []float64, error) {
	st := distribution(spec, dist.HetBlock{})
	var output []float64
	var loopMS float64
	res, err := execute(ctx, cl, model, o, spec, func(inst mpi.Instance) (mpi.RecoverableProgram, error) {
		ranges, err := bandRanges(b.count, b.depth, survivorStrategy(st, inst.Ranks), inst.Cluster.Speeds())
		if err != nil {
			return nil, fmt.Errorf("workload: %s %w", b.name, err)
		}
		start, state, err := restore(inst.Resume)
		if err != nil {
			return nil, err
		}
		return func(c *mpi.Comm, ck *mpi.Checkpointer) error {
			blk := ranges[c.Rank()]
			r := &bandRank{band: b, c: c, ranges: ranges, symbolic: spec.Symbolic, lo: b.first + blk[0], rows: blk[1] - blk[0]}
			out, ms, err := body(r, state, start, spec.CkptSteps, ck)
			if c.Rank() == 0 {
				output, loopMS = out, ms
			}
			return err
		}, nil
	})
	if err != nil {
		return Outcome{Stats: res}, nil, err
	}
	out := Outcome{Work: work, VirtualTime: res.TimeMS, Stats: res, Check: Checksum(output)}
	if !spec.Recover {
		out.VirtualTime = loopMS
	}
	return out, output, nil
}

// buffer returns a working buffer for the rank's block and its ghosts.
func (r *bandRank) buffer() []float64 {
	return buffer((r.rows+2*r.depth)*r.width, r.symbolic)
}

// owned returns the block's own rows of a working buffer.
func (r *bandRank) owned(buf []float64) []float64 {
	return section(buf, r.depth*r.width, (r.depth+r.rows)*r.width, r.symbolic)
}

// distribute ships every rank its block of state (the whole state at
// rank 0, nil when symbolic) with ship ghost rows on each side, highest
// rank first, and returns two working buffers that both hold the rank's
// block.
func (r *bandRank) distribute(state []float64) (cur, nxt []float64, err error) {
	cur, nxt = r.buffer(), r.buffer()
	w, s := r.width, r.ship
	at := (r.depth - s) * w // where a shipped block lands in cur
	if r.c.Rank() == 0 {
		for q := r.c.Size() - 1; q >= 0; q-- {
			lo, hi := (r.first+r.ranges[q][0]-s)*w, (r.first+r.ranges[q][1]+s)*w
			if q != 0 {
				r.c.Send(q, tagBandBlock, section(state, lo, hi, r.symbolic))
			} else if !r.symbolic {
				copy(cur[at:], state[lo:hi])
			}
		}
	} else {
		blk := r.c.Recv(0, tagBandBlock)
		if want := (r.rows + 2*s) * w; len(blk) != want {
			return nil, nil, fmt.Errorf("workload: rank %d band size %d, want %d", r.c.Rank(), len(blk), want)
		}
		if !r.symbolic {
			copy(cur[at:], blk)
		}
	}
	if !r.symbolic {
		copy(nxt, cur)
	}
	return cur, nxt, nil
}

// sendHalo sends the block's first depth rows to the neighbour above and
// its last depth rows to the neighbour below, blocking or, with isend,
// non-blocking.
func (r *bandRank) sendHalo(buf []float64, isend bool) {
	send := r.c.Send
	if isend {
		send = r.c.ISend
	}
	w, d, rank := r.width, r.depth, r.c.Rank()
	if rank > 0 {
		send(rank-1, tagBandUp, section(buf, d*w, 2*d*w, r.symbolic))
	}
	if rank < r.c.Size()-1 {
		send(rank+1, tagBandDown, section(buf, r.rows*w, (r.rows+d)*w, r.symbolic))
	}
}

// recvTop fills the top ghost rows from the neighbour above; the top
// rank's stay as they are (the fixed boundary, or zero).
func (r *bandRank) recvTop(buf []float64) {
	if rank := r.c.Rank(); rank > 0 {
		ghost := r.c.Recv(rank-1, tagBandDown)
		if !r.symbolic {
			copy(buf[:r.depth*r.width], ghost)
		}
	}
}

// recvBottom fills the bottom ghost rows from the neighbour below; the
// bottom rank's stay as they are.
func (r *bandRank) recvBottom(buf []float64) {
	if rank := r.c.Rank(); rank < r.c.Size()-1 {
		ghost := r.c.Recv(rank+1, tagBandUp)
		if !r.symbolic {
			copy(buf[(r.depth+r.rows)*r.width:], ghost)
		}
	}
}

// exchange is the blocking halo exchange. Sends are issued before
// receives; the runtime's sends do not rendezvous, so the symmetric
// pattern cannot deadlock.
func (r *bandRank) exchange(buf []float64) {
	r.sendHalo(buf, false)
	r.recvTop(buf)
	r.recvBottom(buf)
}

// window runs loop between two barriers and returns its virtual time.
// After the first barrier every rank's clock is identical, so the window
// is a well-defined makespan of the loop. It leaves out the one-time
// distribution and collection: the field lives distributed in a real
// application, and the O(n²) one-shot scatter through rank 0 would
// otherwise dominate W ∝ n² at large system sizes.
func window(c *mpi.Comm, loop func()) float64 {
	c.Barrier()
	start := c.Clock()
	loop()
	c.Barrier()
	return c.Clock() - start
}

// checkpointDue reports whether a run that checkpoints every interval
// steps (0: never) saves after step it of iters. It never saves after
// the last step: the collection follows.
func checkpointDue(it, interval, iters int) bool {
	return interval > 0 && (it+1)%interval == 0 && it+1 < iters
}

// pack encodes the rank's block of buf after k steps as a checkpoint
// part: the header [k, first row, row count] and the block's values, a
// copy, or a Blank when symbolic.
func (r *bandRank) pack(k int, buf []float64) (head, body []float64) {
	head = []float64{float64(k), float64(r.lo), float64(r.rows)}
	if r.symbolic {
		return head, r.owned(buf)
	}
	return head, slices.Clone(r.owned(buf))
}

// restore rebuilds the whole state from a committed pack snapshot: a
// copy of initial (nil when symbolic) with every part's rows written
// over it, and the steps done. A nil snapshot is a fresh start: step 0
// and initial itself.
func (b band) restore(snap *mpi.Snapshot, initial []float64) (int, []float64, error) {
	if snap == nil {
		return 0, initial, nil
	}
	if len(snap.Parts) == 0 || len(snap.Parts[0].Head) < 3 {
		return 0, nil, fmt.Errorf("workload: %s snapshot %d malformed", b.name, snap.Seq)
	}
	k := int(snap.Parts[0].Head[0])
	state := slices.Clone(initial)
	for i, part := range snap.Parts {
		h := part.Head
		if len(h) != 3 || int(h[0]) != k {
			return 0, nil, fmt.Errorf("workload: %s snapshot %d part %d inconsistent", b.name, snap.Seq, i)
		}
		lo, rows := int(h[1]), int(h[2])
		if len(part.Body) != rows*b.width || lo < b.first || lo+rows > b.first+b.count {
			return 0, nil, fmt.Errorf("workload: %s snapshot %d part %d shape invalid", b.name, snap.Seq, i)
		}
		if state != nil {
			copy(state[lo*b.width:], part.Body)
		}
	}
	return k, state, nil
}

// collect gathers every rank's own rows at rank 0 and returns there the
// whole state: frame (nil when no row is fixed) with the gathered rows
// written over it. Other ranks, and symbolic runs, get nil.
func (r *bandRank) collect(own, frame []float64) []float64 {
	parts := r.c.Gatherv(0, own)
	if r.c.Rank() != 0 || r.symbolic {
		return nil
	}
	out := make([]float64, (r.count+2*r.first)*r.width)
	copy(out, frame)
	for q, part := range parts {
		copy(out[(r.first+r.ranges[q][0])*r.width:], part)
	}
	return out
}
