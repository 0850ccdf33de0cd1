package job

import (
	"context"
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Memo remembers inner job runs so each distinct run executes once. A
// node enters an inner run only through its marked speed (Definitions
// 1–2: ranks compute at Node.SpeedMflops and the distribution reads the
// speed vector), so a run is keyed by the leased subset's speed vector
// in rank order — never by which node IDs were leased — plus the
// workload, its size and, for faulted runs, the crash plan and
// checkpoint cadence. Two leases of equally fast nodes therefore share
// one run, within a Simulate call and across calls.
//
// Pass one Memo in Options to let several Simulate calls share runs: the
// experiments give every policy's undisturbed, faulted, elastic and
// fixed calls one memo. A Memo may be shared only by calls with the same
// cost model, MPI options and seed, since those also decide a run but
// are not part of its key. It is not safe for concurrent use. The zero
// Memo is empty and ready to use.
type Memo struct {
	runs map[memoKey]innerRun
}

// memoKey names an inner run by exactly the inputs that decide it.
// Floats are encoded by their IEEE-754 bits, so equal keys mean equal
// inputs.
type memoKey struct {
	workload string
	n        int
	// speeds holds the leased subset's marked speeds in rank order.
	speeds string
	// crashes holds the crash plan's (rank, AtMS) pairs in plan order;
	// empty for an undisturbed run.
	crashes string
	// ckptSteps is the checkpoint cadence of a faulted run; 0 for an
	// undisturbed one, which never checkpoints, so undisturbed runs are
	// shared between faulted and undisturbed calls.
	ckptSteps int
}

// innerRun is the outcome of one inner run: a workload execution on one
// leased speed vector under one crash plan.
type innerRun struct {
	// finished is false when the run lost its survivor set or its
	// recovery attempt budget; then failMS (run start to abandonment)
	// is set instead of timeMS.
	finished  bool
	timeMS    float64
	failMS    float64
	work      float64
	rollbacks int
}

// runInner executes w at size n on the leased subset sub: plainly
// without crashes, else under recovery with the crash plan and
// opts.Retry's checkpoint cadence. A run that loses its survivor set or
// its attempt budget is a result (finished false), not an error.
func runInner(ctx context.Context, w workload.Workload, sub *cluster.Cluster, model simnet.CostModel, opts Options, n int, crashes []faults.Crash) (innerRun, error) {
	spec := workload.Spec{N: n, Seed: opts.Seed, Symbolic: true}
	mopts := opts.MPI
	if len(crashes) > 0 {
		// Survivor replay redistributes the dead ranks' shares by the
		// leased subset's nominal speeds: dist.Pinned, subset to the
		// survivors by the recovery supervisor.
		spec.PinnedSpeeds = sub.Speeds()
		spec.Recover, spec.CkptSteps = true, opts.Retry.CkptSteps
		mopts.Faults = faults.Plan{Crashes: crashes}.Injector()
	}
	out, err := w.Run(ctx, sub, model, mopts, spec)
	switch {
	case err == nil:
		return innerRun{finished: true, timeMS: out.Stats.TimeMS, work: out.Work, rollbacks: out.Stats.Attempts - 1}, nil
	case errors.Is(err, mpi.ErrRecoveryFailed):
		return innerRun{finished: false, failMS: out.Stats.FailedAtMS(), rollbacks: out.Stats.Attempts - 1}, nil
	default:
		return innerRun{}, err
	}
}

func (m *Memo) put(k memoKey, r innerRun) {
	if m.runs == nil {
		m.runs = make(map[memoKey]innerRun)
	}
	m.runs[k] = r
}

// speedKey encodes a leased subset's rank-order marked speeds exactly.
func speedKey(sub *cluster.Cluster) string {
	b := make([]byte, 0, 8*sub.Size())
	for _, n := range sub.Nodes {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.SpeedMflops))
	}
	return string(b)
}

// crashKey encodes a crash plan exactly.
func crashKey(crashes []faults.Crash) string {
	b := make([]byte, 0, 16*len(crashes))
	for _, c := range crashes {
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Rank))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.AtMS))
	}
	return string(b)
}
