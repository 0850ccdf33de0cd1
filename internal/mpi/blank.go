package mpi

import (
	"sync"
	"sync/atomic"
)

// blank is the process-wide zero array behind every Blank view. It is
// never written: growing it publishes a fresh, larger array, and views
// of the old one keep it alive.
var (
	blank   atomic.Pointer[[]float64]
	blankMu sync.Mutex // serializes growth only
)

// Blank returns a length-n payload that carries no values: a read-only
// view of one process-wide zero array. The runtime prices a message by
// its length alone, so a symbolic program sends Blanks where a real one
// sends data, and nothing is allocated, cleared or copied.
//
// Never write to a Blank, nor to a payload received from a Blank send:
// the runtime hands Blanks to peers by reference, so a received payload
// is that same view. Its capacity equals its length, so an append
// reallocates instead of writing into the shared array. The array grows
// to the longest Blank requested; a Blank taken before it last grew, or
// a sub-slice of one at an offset, is copied on send like real data.
func Blank(n int) []float64 {
	if a := blank.Load(); a != nil && n <= len(*a) {
		return (*a)[:n:n]
	}
	blankMu.Lock()
	defer blankMu.Unlock()
	a := blank.Load()
	if a == nil || n > len(*a) {
		size := n
		if a != nil && 2*len(*a) > size {
			size = 2 * len(*a)
		}
		grown := make([]float64, size)
		blank.Store(&grown)
		a = &grown
	}
	return (*a)[:n:n]
}

// share returns the copy of data the runtime hands to a peer when it
// only reads the payload afterwards: a Blank of the current array passes
// by reference, anything else is copied. A view of an older array or a
// sub-slice at an offset is copied too — slower, but still correct.
func share(data []float64) []float64 {
	if len(data) > 0 {
		if a := blank.Load(); a != nil && len(*a) >= len(data) && &data[0] == &(*a)[0] {
			return data
		}
	}
	return copySlice(data)
}
