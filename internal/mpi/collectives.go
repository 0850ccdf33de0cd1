package mpi

// Algorithmic collectives built from point-to-point messages.
//
// Comm.Bcast and Comm.Barrier charge the paper's *measured aggregate* costs
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
func BcastLinear(c *Comm, root, tag int, data []float64) []float64 {
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
func BcastTree(c *Comm, root, tag int, data []float64) []float64 {
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
