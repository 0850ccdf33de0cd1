package workload

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mpi"
)

// codecCase is one checkpoint codec under test: snap packs a known
// state at step codecStep on three ranks into a snapshot, decode turns a
// snapshot back into that state, and fixed is the header's fixed-field
// count.
type codecCase struct {
	name    string // as the codec's errors name it
	fixed   int
	stepped bool // the header's first field is the step
	snap    func(symbolic bool) *mpi.Snapshot
	decode  func(s *mpi.Snapshot, symbolic bool) (any, error)
	want    any
	// extra lists the codec's own malformations and their errors.
	extra []codecFault
}

type codecFault struct {
	name   string
	mutate func(s *mpi.Snapshot)
	err    string
	// realOnly marks a fault in a field a symbolic decode never reads.
	realOnly bool
}

const (
	codecStep = 7
	codecSeq  = 3
)

func snapshotOf(parts ...mpi.Part) *mpi.Snapshot {
	return &mpi.Snapshot{Seq: codecSeq, Parts: parts}
}

// ramp returns n values counting up from base.
func ramp(base float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + float64(i)
	}
	return out
}

// bandCodec packs a Jacobi-shaped band: 6 distributed rows of width 4
// between two fixed rows, which restore takes from the initial grid.
func bandCodec() codecCase {
	b := band{name: "Jacobi", count: 6, width: 4, first: 1, depth: 1}
	ranges := [][2]int{{0, 2}, {2, 3}, {3, 6}}
	initial := ramp(0, (b.count+2*b.first)*b.width)
	state := slices.Clone(initial)
	copy(state[b.first*b.width:(b.first+b.count)*b.width], ramp(1000, b.count*b.width))
	type restored struct {
		k     int
		state []float64
	}
	return codecCase{
		name: "Jacobi", fixed: 3, stepped: true,
		snap: func(symbolic bool) *mpi.Snapshot {
			var parts []mpi.Part
			for _, blk := range ranges {
				r := &bandRank{band: b, symbolic: symbolic, lo: b.first + blk[0], rows: blk[1] - blk[0]}
				buf := r.buffer()
				if !symbolic {
					for i := range buf {
						buf[i] = -1 // ghost rows, which pack must leave out
					}
					copy(r.owned(buf), state[r.lo*b.width:(r.lo+r.rows)*b.width])
				}
				head, body := r.pack(codecStep, buf)
				parts = append(parts, mpi.Part{Head: head, Body: body})
			}
			return snapshotOf(parts...)
		},
		decode: func(s *mpi.Snapshot, symbolic bool) (any, error) {
			init := initial
			if symbolic {
				init = nil
			}
			k, st, err := b.restore(s, init)
			return restored{k, st}, err
		},
		want: restored{codecStep, state},
	}
}

// cgCodec packs the CG solver state of an n = 8 system (6 interior
// rows of 6).
func cgCodec() codecCase {
	const n, w, rho = 8, 6, 2.5
	ranges := [][2]int{{0, 2}, {2, 3}, {3, 6}}
	want := &cgResume{rho: rho, x: ramp(1, w*w), r: ramp(100, w*w), p: ramp(1000, w*w)}
	type restored struct {
		k   int
		res *cgResume
	}
	return codecCase{
		name: "CG", fixed: 4, stepped: true,
		snap: func(symbolic bool) *mpi.Snapshot {
			var parts []mpi.Part
			for _, blk := range ranges {
				lo, rows := blk[0], blk[1]-blk[0]
				x := buffer(rows*w, symbolic)
				r := buffer(rows*w, symbolic)
				pv := buffer((rows+2)*w, symbolic) // a ghost row on each side
				if !symbolic {
					copy(x, want.x[lo*w:])
					copy(r, want.r[lo*w:])
					for i := range pv {
						pv[i] = -1
					}
					copy(pv[w:(rows+1)*w], want.p[lo*w:])
				}
				head, body := packCGState(codecStep, lo, rows, w, rho, x, r, pv, symbolic)
				parts = append(parts, mpi.Part{Head: head, Body: body})
			}
			return snapshotOf(parts...)
		},
		decode: func(s *mpi.Snapshot, symbolic bool) (any, error) {
			k, res, err := decodeCGSnapshot(n, s, symbolic)
			return restored{k, res}, err
		},
		want: restored{codecStep, want},
		extra: []codecFault{{
			name:   "different rho",
			mutate: func(s *mpi.Snapshot) { s.Parts[1].Head[3]++ },
			err:    "part 1 inconsistent",
		}},
	}
}

// geCodec packs the elimination state of an n = 5 system whose rows are
// dealt cyclically to the three ranks.
func geCodec() codecCase {
	const n = 5
	a := linalg.NewMatrix(n, n)
	copy(a.Data, ramp(10, n*n))
	b := ramp(-50, n)
	type restored struct {
		k int
		a *linalg.Matrix
		b []float64
	}
	return codecCase{
		name: "GE", fixed: 2, stepped: true,
		snap: func(symbolic bool) *mpi.Snapshot {
			var parts []mpi.Part
			for q := 0; q < 3; q++ {
				var idx []int
				rows := map[int][]float64{}
				rhs := map[int]float64{}
				for i := q; i < n; i += 3 {
					idx = append(idx, i)
					rows[i] = slices.Clone(a.Row(i))
					rhs[i] = b[i]
				}
				head, body := packGEState(codecStep, n, idx, rows, rhs, symbolic)
				parts = append(parts, mpi.Part{Head: head, Body: body})
			}
			return snapshotOf(parts...)
		},
		decode: func(s *mpi.Snapshot, symbolic bool) (any, error) {
			k, ga, gb, err := decodeGESnapshot(n, s, symbolic)
			return restored{k, ga, gb}, err
		},
		want: restored{codecStep, a, b},
		extra: []codecFault{{
			name:     "row index out of range",
			mutate:   func(s *mpi.Snapshot) { s.Parts[0].Head[2] = n },
			err:      "row index 5 out of range",
			realOnly: true, // a symbolic run needs only the pivot count
		}},
	}
}

// mmCodec packs one round of finished result rows of an n = 4 product:
// two ranks finished rows, the third an empty chunk.
func mmCodec() codecCase {
	const n = 4
	chunks := [][]int{{0, 3}, {1}, {}}
	want := map[int][]float64{}
	for _, chunk := range chunks {
		for _, i := range chunk {
			want[i] = ramp(float64(10*i), n)
		}
	}
	return codecCase{
		name: "MM", fixed: 1,
		snap: func(symbolic bool) *mpi.Snapshot {
			var parts []mpi.Part
			for _, chunk := range chunks {
				values := buffer(len(chunk)*n, symbolic)
				if !symbolic {
					for j, i := range chunk {
						copy(values[j*n:], want[i])
					}
				}
				head, body := packMMChunk(chunk, values, symbolic)
				parts = append(parts, mpi.Part{Head: head, Body: body})
			}
			return snapshotOf(parts...)
		},
		decode: func(s *mpi.Snapshot, symbolic bool) (any, error) {
			return decodeMMHistory(n, []mpi.Snapshot{*s}, symbolic)
		},
		want: want,
		extra: []codecFault{{
			name:   "row index out of range",
			mutate: func(s *mpi.Snapshot) { s.Parts[0].Head[1] = -1 },
			err:    "row index -1 out of range",
		}},
	}
}

// TestCheckpointCodecs round-trips every checkpoint codec and feeds it
// each kind of malformed snapshot. A real-data pack decodes back to the
// state it was taken from; a symbolic pack has the real pack's header
// and body lengths, so it prices the same write, and decodes from its
// headers alone. Every malformed snapshot is refused with the codec's
// own error.
func TestCheckpointCodecs(t *testing.T) {
	for _, tc := range []codecCase{bandCodec(), cgCodec(), geCodec(), mmCodec()} {
		t.Run(tc.name, func(t *testing.T) {
			realSnap, symSnap := tc.snap(false), tc.snap(true)
			got, err := tc.decode(realSnap, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("decoded %+v, want %+v", got, tc.want)
			}
			for i, part := range symSnap.Parts {
				rp := realSnap.Parts[i]
				if !slices.Equal(part.Head, rp.Head) || len(part.Body) != len(rp.Body) {
					t.Errorf("part %d: symbolic head %v and %d body values, real %v and %d",
						i, part.Head, len(part.Body), rp.Head, len(rp.Body))
				}
			}
			if _, err := tc.decode(symSnap, true); err != nil {
				t.Errorf("symbolic decode: %v", err)
			}

			faults := []codecFault{
				{name: "no parts", mutate: func(s *mpi.Snapshot) { s.Parts = nil }, err: "malformed"},
				{name: "short header", mutate: func(s *mpi.Snapshot) { s.Parts[0].Head = s.Parts[0].Head[:tc.fixed-1] }, err: "malformed"},
				{name: "short body", mutate: func(s *mpi.Snapshot) { s.Parts[0].Body = s.Parts[0].Body[1:] }, err: "part 0"},
			}
			if tc.stepped {
				faults = append(faults, codecFault{name: "mixed steps", mutate: func(s *mpi.Snapshot) { s.Parts[2].Head[0]++ }, err: "part 2 inconsistent"})
			}
			prefix := "workload: " + tc.name + " snapshot 3"
			for _, f := range append(faults, tc.extra...) {
				for _, symbolic := range []bool{false, true} {
					if symbolic && f.realOnly {
						continue
					}
					s := tc.snap(symbolic)
					f.mutate(s)
					_, err := tc.decode(s, symbolic)
					if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), f.err) {
						t.Errorf("%s (symbolic %v): got error %v, want %q ... %q", f.name, symbolic, err, prefix, f.err)
					}
				}
			}
		})
	}
}
