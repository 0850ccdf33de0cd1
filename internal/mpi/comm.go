// Package mpi is a small message-passing runtime over *virtual time*,
// standing in for the MPICH installation of the paper's Sunwulf testbed.
//
// A parallel program is a Go function executed once per rank, handed
// that rank's *Comm, the runtime that prices its every operation. Each
// rank is pinned to a cluster node and owns a virtual clock in
// milliseconds:
//
//   - Compute(flops) advances the clock by flops / markedSpeed;
//   - point-to-point and collective operations advance it according to a
//     simnet.CostModel and the causality of message delivery (a receive
//     cannot complete before the matching payload arrives).
//
// Payloads are []float64 slices, priced by their length alone. The
// algorithms in internal/workload move real data and perform genuine
// numerics, so their results can be verified against sequential solvers
// while their timing comes from the model. Their symbolic mode sends
// Blank payloads instead: read-only views of one shared zero array,
// handed from rank to rank by reference, so a run that needs no values
// allocates, clears and copies no payload, at exactly the same virtual
// cost.
//
// Architecturally the package is a single rank runtime over pluggable
// transports. The runtime (runtime.go + ops.go) owns everything that
// defines the model's semantics: clock charging policy, message matching,
// the max-reduction barrier, the crash fault protocol, traffic accounting
// and trace emission. It charges every interval exactly as the cost model
// prices it, with no noise of its own. One mailbox per receiving rank
// (transport.go), the same under every transport, owns the receiving
// side: an unbounded FIFO per source, so a send never blocks, and the
// rule for when a blocked rank resumes, with a dead peer's messages
// drained before it reads as dead. A Transport supplies only the
// execution substrate — how ranks run, block and wake, and when a post or
// a death reaches a mailbox. Three transports ship with the package,
// selected by Options.Engine:
//
//   - EngineLive -> the live transport (NewLiveTransport): one goroutine
//     per rank, each mailbox under a mutex with a wake channel. Virtual
//     time is computed from message timestamps, so results are
//     bit-deterministic regardless of Go scheduling.
//   - EngineDES -> the DES transport (NewDESTransport): ranks are
//     processes of a discrete-event kernel (internal/des), each post and
//     each death one kernel event into the receiver's mailbox,
//     optionally sharing a contended Ethernet wire (internal/simnet.Wire)
//     so point-to-point transfers queue for the medium like frames on a
//     hub.
//   - EngineSymbolic -> the symbolic fast-forward transport
//     (NewSymbolicTransport): ranks are cooperative goroutines under a
//     sequential scheduler; clocks, wire occupancy and barrier waits are
//     pure arithmetic, and a rank context-switches only when it genuinely
//     blocks. A ladder rung costs O(program length) instead of O(events),
//     which is what makes p = 10^5..10^6 ladder studies tractable.
//
// Because all time-charging logic is shared, the three transports produce
// bit-identical virtual times, stats and trace span sequences by
// construction when contention is disabled (verified by the differential
// suites); the DES transport with contention enabled is the ablation that
// quantifies what shared Ethernet does to scalability, and the one regime
// the symbolic transport cannot price (wire queueing needs a global event
// order).
//
// Send semantics are blocking-by-cost: a sender is busy for
// SendTime+TransferTime (it drives the payload onto the wire), and the
// payload becomes available to the receiver at that instant; the receiver
// additionally pays RecvTime. Broadcast and barrier use the paper's
// measured aggregate forms (simnet BcastTime/BarrierTime) rather than being
// decomposed into point-to-point messages, matching how §4.5 models T_o.
//
// Two entry points run a program, and both return one Result. Run
// executes it once. RunRecoverable (recovery.go) builds a checkpointing
// program per attempt from a factory and, after a crash, replays it on
// the survivors from the last committed checkpoint; its Result adds the
// attempts, checkpoints and rollback events to the same record.
package mpi

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Well-known message tags. User programs may use any non-negative tag;
// negative tags are reserved for collectives.
const (
	tagBcast   = -1
	tagGather  = -2
	tagScatter = -3
	tagReduce  = -4
)

// ReduceOp is a binary reduction operator.
type ReduceOp func(a, b float64) float64

// Standard reduction operators.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
)

// Engine selects the execution engine.
type Engine int

// Engines.
const (
	// EngineLive runs ranks as goroutines with virtual-time bookkeeping.
	EngineLive Engine = iota
	// EngineDES runs ranks as discrete-event processes.
	EngineDES
	// EngineSymbolic runs ranks under the symbolic fast-forward scheduler:
	// closed-form clock arithmetic, context switches only at genuine
	// blocking points. Bit-identical to the other engines for uncontended
	// runs; rejects network contention.
	EngineSymbolic
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineLive:
		return "live"
	case EngineDES:
		return "des"
	case EngineSymbolic:
		return "symbolic"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options configures a Run.
type Options struct {
	// Engine selects live (default), DES or symbolic execution.
	Engine Engine
	// Network selects the medium model for point-to-point transfers:
	// ideal (default), shared hub Ethernet, or a non-blocking switch with
	// per-port queueing. Only the DES engine queues; Run rejects a
	// non-ideal mode on the other engines.
	Network simnet.WireMode
	// Trace, when non-nil, records every rank's virtual timeline
	// (compute/send/recv/wait/collective spans) for Gantt rendering and
	// overhead decomposition.
	Trace *trace.Trace
	// Faults, when non-nil, injects the run's fault plan: probabilistic
	// message loss with timeout/backoff retransmission, and rank crashes
	// with graceful exclusion (peers that depend on a dead rank abort at
	// its death time; barriers proceed without it). Every engine honors
	// it and produces identical virtual times for the same injector. Fault
	// deaths surface as CrashError / PeerCrashError / DropStormError in
	// the joined Run error; see ClassifyFaults.
	Faults FaultInjector
}

// Result summarizes one program execution: a plain Run, or a
// RunRecoverable across all its attempts. A supervised result is indexed
// by ORIGINAL rank id: RankClocks keeps a dead rank's final (death)
// clock, ComputeMS/CommMS sum each rank's time across attempts, TimeMS
// is the final attempt's makespan, and Messages/BytesMoved total every
// attempt's traffic.
type Result struct {
	// TimeMS is the makespan: the maximum final clock across ranks.
	TimeMS float64
	// RankClocks holds each rank's final virtual clock.
	RankClocks []float64
	// ComputeMS and CommMS break each rank's time into computation and
	// communication (waiting included); the residual is idle time.
	ComputeMS []float64
	CommMS    []float64
	// Messages and BytesMoved count point-to-point payloads (collectives
	// count their internal distribution messages too).
	Messages   int64
	BytesMoved int64
	// Attempts is the number of instances run: 1 for a plain run or a
	// supervised one without failure, so Attempts − 1 counts rollbacks.
	Attempts int
	// Checkpoints counts committed snapshots; CheckpointMS is the total
	// virtual time ranks spent writing them (committed or not), summed
	// per rank and then in rank order, so every engine and rerun reads
	// the same bits. Both are 0 on a plain run.
	Checkpoints  int
	CheckpointMS float64
	// Events records each rollback in order.
	Events []RecoveryEvent
}

// FailedAtMS returns the virtual instant an abandoned run stopped
// consuming the machine: the latest of the per-rank death/finish clocks
// and any rollback's resume instant. Meaningful when RunRecoverable
// returned ErrRecoveryFailed (TimeMS is only set on success).
func (r Result) FailedAtMS() float64 {
	at := 0.0
	for _, c := range r.RankClocks {
		if c > at {
			at = c
		}
	}
	for _, ev := range r.Events {
		if ev.ResumeMS > at {
			at = ev.ResumeMS
		}
	}
	return at
}

// MaxCommMS returns the largest per-rank communication time — the measured
// stand-in for the paper's total parallel overhead T_o on the critical path.
func (r Result) MaxCommMS() float64 {
	var m float64
	for _, v := range r.CommMS {
		if v > m {
			m = v
		}
	}
	return m
}

// Program is the per-rank body of a parallel computation. An error from any
// rank aborts the Run (after all ranks finish, to keep engines simple).
type Program func(c *Comm) error

// validateRun checks the arguments and the engine selection of a run.
func validateRun(cl *cluster.Cluster, model simnet.CostModel, opts Options, program Program) error {
	if cl == nil || cl.Size() == 0 {
		return errors.New("mpi: nil or empty cluster")
	}
	if model == nil {
		return errors.New("mpi: nil cost model")
	}
	if program == nil {
		return errors.New("mpi: nil program")
	}
	if opts.Faults != nil && opts.Faults.MaxSendAttempts() < 1 {
		return fmt.Errorf("mpi: fault injector allows %d send attempts, need >= 1",
			opts.Faults.MaxSendAttempts())
	}
	if opts.Engine != EngineLive && opts.Engine != EngineDES && opts.Engine != EngineSymbolic {
		return fmt.Errorf("mpi: unknown engine %v", opts.Engine)
	}
	if opts.Engine != EngineDES && opts.Network != simnet.WireIdeal {
		return errors.New("mpi: network contention requires the DES engine")
	}
	return nil
}

// Run executes program once per rank of cl under the given cost model and
// returns the virtual-time result. Program errors from any rank are joined
// and returned. Cancellation is observed at run boundaries: a canceled
// context prevents the program from starting, and a cancellation arriving
// mid-run surfaces after the engine drains. A started program always runs
// to completion — tearing ranks down mid-protocol would leak goroutines
// blocked on message streams — so callers running sweeps get
// cancellation granularity of one program execution, which is
// milliseconds of real time.
func Run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, opts Options, program Program) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("mpi: run canceled before start: %w", err)
	}
	if err := validateRun(cl, model, opts, program); err != nil {
		return Result{}, err
	}
	var res Result
	var err error
	switch opts.Engine {
	case EngineDES:
		res, err = runDES(cl, model, opts, program)
	case EngineSymbolic:
		res, err = runSymbolic(cl, model, opts, program)
	default:
		res, err = runLive(cl, model, opts, program)
	}
	if err == nil {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, fmt.Errorf("mpi: run canceled: %w", cerr)
		}
	}
	return res, err
}

func payloadBytes(data []float64) int { return simnet.WordBytes * len(data) }

func copySlice(data []float64) []float64 {
	out := make([]float64, len(data))
	copy(out, data)
	return out
}
