package simnet

import (
	"fmt"

	"repro/internal/des"
)

// WireMode selects how transfers contend for the medium.
type WireMode int

// Wire modes.
const (
	// WireIdeal has infinite parallel capacity: transfers never queue
	// (the analytic model).
	WireIdeal WireMode = iota
	// WireShared is classic hub Ethernet: one frame in the collision
	// domain at a time, FIFO.
	WireShared
	// WireSwitched is a non-blocking switch: each endpoint's port carries
	// one transfer at a time, but disjoint pairs proceed in parallel.
	WireSwitched
)

// String implements fmt.Stringer.
func (m WireMode) String() string {
	switch m {
	case WireIdeal:
		return "ideal"
	case WireShared:
		return "shared"
	case WireSwitched:
		return "switched"
	default:
		return fmt.Sprintf("WireMode(%d)", int(m))
	}
}

// Wire is the transmission medium of a simulated cluster, backed by DES
// resources according to its mode.
type Wire struct {
	Model CostModel
	Mode  WireMode
	bus   *des.Resource   // WireShared
	ports []*des.Resource // WireSwitched: one per endpoint
}

// NewWireMode attaches a wire with an explicit mode. endpoints is the
// number of switch ports (required > 0 for WireSwitched, ignored
// otherwise).
func NewWireMode(k *des.Kernel, model CostModel, mode WireMode, endpoints int) *Wire {
	w := &Wire{Model: model, Mode: mode}
	switch mode {
	case WireShared:
		w.bus = k.NewResource("ethernet", 1)
	case WireSwitched:
		if endpoints < 1 {
			panic("simnet: switched wire needs endpoints >= 1")
		}
		w.ports = make([]*des.Resource, endpoints)
		for i := range w.ports {
			w.ports[i] = k.NewResource(fmt.Sprintf("port%d", i), 1)
		}
	}
	return w
}

// Transmit charges process p the full cost of moving bytes across the wire:
// sender overhead, then (possibly queued) occupancy of the medium for the
// transfer time. The returned value is the virtual time at which the
// payload is fully delivered to the far end, i.e. when the receiver may
// start its RecvTime processing.
func (w *Wire) Transmit(p *des.Proc, bytes int) float64 {
	p.Delay(w.Model.SendTime(bytes))
	w.Occupy(p, bytes, 0, 0)
	return p.Now()
}

// Occupy charges p only the medium-occupancy part of a transfer from
// endpoint `from` to endpoint `to`: queueing per the wire mode plus the
// transfer time. Callers that model endpoint overheads themselves (the
// mpi engines) use this instead of Transmit.
func (w *Wire) Occupy(p *des.Proc, bytes, from, to int) {
	w.OccupyFor(p, w.Model.TransferTime(bytes), from, to)
}

// OccupyFor is Occupy with the transfer duration supplied by the caller
// (used when a topology-aware model has already priced the specific
// endpoint pair).
func (w *Wire) OccupyFor(p *des.Proc, t float64, from, to int) {
	switch w.Mode {
	case WireShared:
		w.bus.Use(p, t)
	case WireSwitched:
		// Hold both ports for the transfer. Canonical acquisition order
		// (lower index first) rules out circular wait between opposite
		// transfers.
		a, b := w.ports[from%len(w.ports)], w.ports[to%len(w.ports)]
		if from == to {
			a.Use(p, t)
			return
		}
		if to < from {
			a, b = b, a
		}
		a.Acquire(p)
		b.Acquire(p)
		p.Delay(t)
		b.Release()
		a.Release()
	default:
		p.Delay(t)
	}
}
