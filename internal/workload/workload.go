// Package workload holds the algorithm–system combinations and is the
// one seam between them and everything that consumes them: the isospeed
// study in internal/core, the experiment suite, and the CLIs. The paper's
// metric is algorithm-generic — Definition 4 and Theorem 1 apply to any
// algorithm–system combination — so the rest of the system should be too.
//
// Each combination is written once, in its own file: the rank program,
// its checkpoint codec, a sequential reference for verification, the
// analytic machine (work polynomial, sustained fraction, overhead model
// To(n)) and the registration. Its Run only forwards to a single
// unexported run function that builds the rank program once and runs it
// either plainly through mpi.Run or, when the Spec asks to Recover,
// under the crash-recovery supervisor (mpi.RunRecoverable). A recovered
// run is the same combination with a larger To, so it has no entry
// point of its own: Spec.Recover and Spec.CkptSteps select it, and its
// attempts, checkpoints and rollbacks come back in the one
// Outcome.Stats. Registering a new workload is that one file; study,
// fault sweep, recovered sweep, and both CLIs pick it up with zero
// consumer edits.
//
// The row-band programs (cg, jacobi, mg, spmv) share one protocol in
// band.go: block ranges topped up to the ghost depth, rank 0's block
// distribution, the halo exchange, the barrier-to-barrier loop window,
// the [k, lo, rows, values] checkpoint codec, the Gatherv collection and
// the run path. Their files declare a band shape and keep only what is
// their own — initial state, the step's arithmetic and charges, the
// sequential reference and the analytic machine. Jacobi and MG are two
// values of one stencil rank body.
//
// Every algorithm moves real data and produces verifiable numerics, or
// runs in symbolic mode, which skips the host arithmetic and allocates no
// payload (every message is an mpi.Blank) while performing exactly the
// same message traffic and virtual-time accounting.
//
// Achieved speed vs marked speed: marked speed is benchmarked with NPB-
// style kernels, but real applications sustain only a fraction of it (the
// paper: "the achieved speed of an application may not be the same as the
// benchmarked marked speed"). Each combination charges its compute at a
// fixed Default…Sustained fraction; the values put the speed-efficiency
// curves in the paper's observed range (E_s saturating well below 1,
// targets 0.3/0.2 crossed at moderate N).
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

// Spec selects one run of a workload. The zero value of every field is
// meaningful: seed 0, numeric verification on, the workload's own default
// distribution strategy, a plain run without recovery.
type Spec struct {
	// N is the problem size (matrix order / grid side).
	N int
	// Seed drives deterministic input generation.
	Seed int64
	// Symbolic skips host arithmetic and sends mpi.Blank payloads while
	// keeping traffic and virtual time identical; outputs (and hence
	// Outcome.Check) are empty.
	Symbolic bool
	// PinnedSpeeds, when non-nil, pins the distribution to these nominal
	// marked speeds via dist.Pinned so a derated or faulted cluster still
	// receives the blind nominal assignment (the fault studies' setup).
	PinnedSpeeds []float64
	// Recover runs under checkpoint/rollback recovery with the
	// workload's own snapshot codec: a crash rolls the run back to its
	// last committed checkpoint and replays it on the survivors.
	Recover bool
	// CkptSteps is a recovered run's checkpoint cadence in algorithm
	// steps: GE pivots, MM rows per chunk, sweeps or iterations of the
	// iterative workloads. 0 disables checkpointing — recovery then
	// restarts the computation from scratch on the survivors. It must
	// be 0 unless Recover is set.
	CkptSteps int
}

// Outcome is the uniform result every workload returns.
type Outcome struct {
	// Work is the flop count actually executed (Definition 2's W).
	Work float64
	// VirtualTime is the time the study meters, in ms. GE and MM meter
	// the full makespan; a plain run of an iterative workload (cg,
	// jacobi, mg, spmv) meters only its steady-state loop window, while
	// a recovered run meters the recovered makespan. Stats.TimeMS always
	// carries the full makespan.
	VirtualTime float64
	// Stats is the transport-level result: makespan, messages, bytes,
	// and for a recovered run its attempts, checkpoints and rollbacks.
	// It is filled in even when Run fails, so a scheduler can price an
	// abandoned recovered run (Stats.FailedAtMS).
	Stats mpi.Result
	// Check is an FNV-1a hash over the IEEE-754 bits of the numeric
	// output, 0 for symbolic runs. Two runs agree bitwise iff their
	// checks agree.
	Check uint64
}

// Workload is one algorithm–system combination, registered by name.
type Workload interface {
	// Name is the registry key, also used in cache signatures and CLI
	// selectors ("ge", "mm", "jacobi", ...).
	Name() string
	// About is a one-line description for -list output.
	About() string
	// DefaultTarget is the workload's default speed-efficiency set-point
	// for isospeed studies.
	DefaultTarget() float64
	// ClusterLadder builds the p-node rung of the workload's cluster
	// ladder.
	ClusterLadder(p int) (*cluster.Cluster, error)
	// WorkAt is the work polynomial W(n) in flops.
	WorkAt(n int) float64
	// MemBytes is the aggregate memory footprint of a size-n problem.
	MemBytes(n int) float64
	// Machine returns the full analytic machine (work polynomial,
	// sustained fraction, overhead model To(n) in ms) used to predict
	// required problem sizes.
	Machine(cl *cluster.Cluster, model simnet.CostModel) (core.AnalyticMachine, error)
	// Run executes the workload once in virtual time, plainly or, with
	// spec.Recover, under checkpoint/rollback recovery.
	Run(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, mpiOpts mpi.Options, spec Spec) (Outcome, error)
}

// execute is the one run path of every workload. The build function is
// the workload's program factory: given a membership instance it lays
// out the distribution, restores any checkpoint, and returns the rank
// program. A plain spec builds once for the whole cluster and runs that
// program through mpi.Run (no checkpointer, no supervisor); with
// spec.Recover the recovery supervisor calls it for the initial instance
// and again after every crash rollback (the numerics are replay-exact:
// updates depend on data, never on ownership, so a recovered run is
// bitwise equal to an undisturbed one).
func execute(ctx context.Context, cl *cluster.Cluster, model simnet.CostModel, o mpi.Options, spec Spec, build func(mpi.Instance) (mpi.RecoverableProgram, error)) (mpi.Result, error) {
	switch {
	case spec.CkptSteps < 0:
		return mpi.Result{}, fmt.Errorf("workload: Spec.CkptSteps %d < 0", spec.CkptSteps)
	case spec.CkptSteps != 0 && !spec.Recover:
		return mpi.Result{}, fmt.Errorf("workload: Spec.CkptSteps %d needs Spec.Recover", spec.CkptSteps)
	case spec.Recover:
		return mpi.RunRecoverable(ctx, cl, model, o, build)
	}
	ranks := make([]int, cl.Size())
	for r := range ranks {
		ranks[r] = r
	}
	prog, err := build(mpi.Instance{Cluster: cl, Ranks: ranks})
	if err != nil {
		return mpi.Result{}, err
	}
	return mpi.Run(ctx, cl, model, o, func(c mpi.Comm) error { return prog(c, nil) })
}

// distribution resolves one run's distribution strategy: st, pinned to
// the spec's nominal speeds when the spec names them.
func distribution(spec Spec, st dist.Strategy) dist.Strategy {
	if spec.PinnedSpeeds != nil {
		return dist.Pinned{Speeds: spec.PinnedSpeeds, Inner: st}
	}
	return st
}

// survivorStrategy restricts a distribution strategy to the instance's
// original ranks: a Pinned strategy keeps distributing by the members'
// nominal marked speeds (a dead rank's share is split proportionally),
// any other strategy re-assigns from the observed member speeds as-is.
func survivorStrategy(st dist.Strategy, ranks []int) dist.Strategy {
	p, ok := st.(dist.Pinned)
	if !ok {
		return st
	}
	speeds := make([]float64, 0, len(ranks))
	for _, r := range ranks {
		if r < 0 || r >= len(p.Speeds) {
			return st // let Assign report the mismatch
		}
		speeds = append(speeds, p.Speeds[r])
	}
	return dist.Pinned{Speeds: speeds, Inner: p.Inner}
}

// isBlockAssignment reports whether every rank owns one contiguous band,
// in rank order — what the band-decomposed algorithms need.
func isBlockAssignment(asn dist.Assignment) bool {
	prev := 0
	for _, o := range asn.Owner {
		if o < prev {
			return false
		}
		prev = o
	}
	return true
}

// buffer returns a length-n message or working buffer: a fresh zeroed
// slice for a real-data run, a read-only mpi.Blank for a symbolic one,
// whose rank programs never write their buffers.
func buffer(n int, symbolic bool) []float64 {
	if symbolic {
		return mpi.Blank(n)
	}
	return make([]float64, n)
}

// section returns buf[lo:hi] as a message payload, or in a symbolic run
// a Blank of that length: the runtime passes only a whole Blank by
// reference and would copy a sub-slice of one at an offset.
func section(buf []float64, lo, hi int, symbolic bool) []float64 {
	if symbolic {
		return mpi.Blank(hi - lo)
	}
	return buf[lo:hi]
}

// wordB is shorthand for the wire size of one element in the analytic
// overhead models.
const wordB = float64(simnet.WordBytes)

// Checksum hashes the IEEE-754 bit patterns of the given slices with
// FNV-1a, returning 0 when no values are present (symbolic runs). Equal
// checksums of non-empty outputs certify bitwise-equal results.
func Checksum(parts ...[]float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	seen := false
	for _, part := range parts {
		for _, v := range part {
			seen = true
			bits := math.Float64bits(v)
			for shift := 0; shift < 64; shift += 8 {
				h ^= (bits >> shift) & 0xff
				h *= prime64
			}
		}
	}
	if !seen {
		return 0
	}
	return h
}

// Target assembles the core.StudyTarget for one workload on one cluster:
// the registry's single point where study wiring happens. The runner is
// passed in so callers can wrap Run with caching or progress hooks.
func Target(w Workload, cl *cluster.Cluster, model simnet.CostModel, run core.Runner) (core.StudyTarget, error) {
	m, err := w.Machine(cl, model)
	if err != nil {
		return core.StudyTarget{}, err
	}
	return core.StudyTarget{
		Label:   cl.Name,
		C:       cl.MarkedSpeed(),
		Machine: m,
		Run:     run,
		WorkAt:  w.WorkAt,
	}, nil
}

// Runner adapts a workload to the core.Runner shape: each call runs the
// workload at size n with the template spec (N overwritten).
func Runner(ctx context.Context, w Workload, cl *cluster.Cluster, model simnet.CostModel, mpiOpts mpi.Options, spec Spec) core.Runner {
	return func(n int) (float64, float64, error) {
		s := spec
		s.N = n
		out, err := w.Run(ctx, cl, model, mpiOpts, s)
		if err != nil {
			return 0, 0, err
		}
		return out.Work, out.VirtualTime, nil
	}
}
