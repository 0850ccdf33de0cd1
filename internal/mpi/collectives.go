package mpi

import "fmt"

// Algorithmic collectives built from point-to-point messages.
//
// Comm.Bcast/Barrier charge the paper's *measured aggregate* costs
// (T_bcast ≈ 0.23·p, the linear MPICH broadcast of the 2005 testbed).
// The functions here implement collectives as explicit message-passing
// algorithms instead, so their cost *emerges* from the point-to-point
// model. Comparing the two quantifies how much of the paper's measured
// overhead is the runtime's collective algorithm rather than the wire:
// a binomial tree needs ⌈log2 p⌉ rounds where the linear broadcast needs
// p-1 sequential sends.
//
// All ranks of the communicator must call these together, with the same
// root and tag. The tag namespaces the collective's internal messages;
// callers should use distinct tags per call site.

// BcastLinear broadcasts data from root by sending to every peer in turn
// — the flat algorithm early MPICH used on Ethernet (and the shape behind
// the paper's measured 0.23·p ms). Every rank returns its own copy, or,
// for a Blank, the same read-only view.
func BcastLinear(c Comm, root, tag int, data []float64) []float64 {
	if c.Rank() == root {
		for r := 0; r < c.Size(); r++ {
			if r != root {
				c.Send(r, tag, data)
			}
		}
		return share(data)
	}
	return c.Recv(root, tag)
}

// BcastTree broadcasts data from root along a binomial tree: in round k,
// every rank that already has the payload forwards it to the rank 2^k
// positions away (relative to root, modulo p). ⌈log2 p⌉ rounds instead of
// p-1 sequential sends. Every rank returns its own copy, or, for a
// Blank, the same read-only view: a Blank is forwarded on every hop
// without a copy.
func BcastTree(c Comm, root, tag int, data []float64) []float64 {
	p := c.Size()
	me := (c.Rank() - root + p) % p // position relative to root
	var have []float64
	if me == 0 {
		have = share(data)
	}
	for dist := 1; dist < p; dist <<= 1 {
		if me < dist {
			// I have the payload; forward to my partner this round (if it
			// exists).
			partner := me + dist
			if partner < p {
				c.Send((partner+root)%p, tag, have)
			}
		} else if me < 2*dist {
			// I receive this round.
			src := me - dist
			have = c.Recv((src+root)%p, tag)
		}
	}
	return have
}

// AllreduceRing reduces a vector across ranks with the bandwidth-optimal
// ring algorithm (reduce-scatter followed by allgather): each rank sends
// 2·(p-1)/p of the vector instead of the whole vector landing on one
// root. Every rank returns the fully reduced vector.
//
// The vector is chunked into p near-equal pieces; op is applied
// elementwise. All ranks must pass vectors of identical length. The
// result is always a private slice, even for a Blank input.
func AllreduceRing(c Comm, tag int, data []float64, op ReduceOp) []float64 {
	if op == nil {
		panic(fmt.Sprintf("mpi: rank %d: AllreduceRing nil op", c.Rank()))
	}
	p := c.Size()
	acc := copySlice(data)
	if p == 1 {
		return acc
	}
	n := len(acc)
	// Chunk boundaries.
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	chunk := func(i int) []float64 {
		i = ((i % p) + p) % p
		return acc[bounds[i]:bounds[i+1]]
	}
	me := c.Rank()
	next := (me + 1) % p
	prev := (me + p - 1) % p

	// Reduce-scatter: after p-1 steps, rank r holds the fully reduced
	// chunk (r+1) mod p.
	for step := 0; step < p-1; step++ {
		sendIdx := me - step
		recvIdx := me - step - 1
		c.Send(next, tag, chunk(sendIdx))
		in := c.Recv(prev, tag)
		dst := chunk(recvIdx)
		for i := range dst {
			dst[i] = op(dst[i], in[i])
		}
		c.Compute(float64(len(dst))) // fold flops
	}
	// Allgather: circulate the reduced chunks.
	for step := 0; step < p-1; step++ {
		sendIdx := me + 1 - step
		recvIdx := me - step
		c.Send(next, tag+1, chunk(sendIdx))
		in := c.Recv(prev, tag+1)
		copy(chunk(recvIdx), in)
	}
	return acc
}

// GatherTree gathers every rank's fixed-size slice at root along a
// binomial tree: ⌈log2 p⌉ rounds, each halving the number of senders.
// Root returns the concatenation in rank order, in a private slice;
// others nil. All slices must have identical length.
func GatherTree(c Comm, root, tag int, data []float64) []float64 {
	p := c.Size()
	width := len(data)
	me := (c.Rank() - root + p) % p
	// buf accumulates the block of positions [me, me+span) that this rank
	// currently represents.
	buf := copySlice(data)
	span := 1
	for dist := 1; dist < p; dist <<= 1 {
		if me%(2*dist) == 0 {
			// I receive from me+dist (if it exists).
			src := me + dist
			if src < p {
				in := c.Recv((src+root)%p, tag)
				buf = append(buf, in...)
				span += len(in) / width
			}
		} else if me%(2*dist) == dist {
			// I send my accumulated block to me-dist and am done.
			c.Send((me-dist+root)%p, tag, buf)
			return nil
		}
	}
	if me != 0 {
		return nil
	}
	// buf holds blocks in position order 0..p-1 relative to root; rotate
	// into absolute rank order.
	out := make([]float64, p*width)
	for pos := 0; pos < p; pos++ {
		rank := (pos + root) % p
		copy(out[rank*width:(rank+1)*width], buf[pos*width:(pos+1)*width])
	}
	return out
}
