package job

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
)

// Estimator predicts a job's work in flops, the scale SJF orders by.
type Estimator func(*Job) float64

// Policy is the scheduler seam: given the current queue (in arrival
// order) and the allocator's free state, pick which job to admit next
// and WHERE to place it — the shared-cluster ranks to lease, in job
// rank order. Policies are pure decision logic: they never mutate the
// queue or the allocator, so the simulator owns all state transitions
// and determinism is a property of the event timeline alone.
type Policy interface {
	Name() string
	About() string
	// Pick returns the queue index of the job to admit and its
	// placement, or ok=false when nothing can be admitted now. nowMS is
	// the virtual decision instant, so forecast-aware policies can weigh
	// the allocator's outage outlook against a job's estimated run.
	Pick(queue []*Job, alloc *cluster.Allocator, est Estimator, nowMS float64) (idx int, ranks []int, ok bool)
}

// lowestFree returns the width lowest-index free ranks.
func lowestFree(alloc *cluster.Allocator, width int) ([]int, bool) {
	free := alloc.FreeRanks() // ascending
	if len(free) < width {
		return nil, false
	}
	return free[:width], true
}

// fcfs admits strictly in arrival order: the head job waits for enough
// free nodes, blocking everything behind it (no backfilling). Placement
// is the lowest-index free nodes.
type fcfs struct{}

func (fcfs) Name() string { return "fcfs" }
func (fcfs) About() string {
	return "first-come first-served, head-of-line blocking, lowest free nodes"
}
func (fcfs) Pick(queue []*Job, alloc *cluster.Allocator, est Estimator, nowMS float64) (int, []int, bool) {
	if len(queue) == 0 {
		return 0, nil, false
	}
	ranks, ok := lowestFree(alloc, queue[0].Width)
	return 0, ranks, ok
}

// sjf admits the queued job with the least estimated work among those
// that fit the free set (ties to arrival order). Placement is the
// lowest-index free nodes.
type sjf struct{}

func (sjf) Name() string  { return "sjf" }
func (sjf) About() string { return "shortest job first by estimated work, lowest free nodes" }
func (sjf) Pick(queue []*Job, alloc *cluster.Allocator, est Estimator, nowMS float64) (int, []int, bool) {
	best, bestWork := -1, 0.0
	for i, j := range queue {
		if alloc.Free() < j.Width {
			continue
		}
		if w := est(j); best < 0 || w < bestWork {
			best, bestWork = i, w
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	ranks, ok := lowestFree(alloc, queue[best].Width)
	return best, ranks, ok
}

// priority admits the most urgent fitting job (lowest Priority value,
// ties to arrival order). Placement is the lowest-index free nodes.
type priority struct{}

func (priority) Name() string { return "priority" }
func (priority) About() string {
	return "lowest priority value first among fitting jobs, lowest free nodes"
}
func (priority) Pick(queue []*Job, alloc *cluster.Allocator, est Estimator, nowMS float64) (int, []int, bool) {
	best := -1
	for i, j := range queue {
		if alloc.Free() < j.Width {
			continue
		}
		if best < 0 || j.Priority < queue[best].Priority {
			best = i
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	ranks, ok := lowestFree(alloc, queue[best].Width)
	return best, ranks, ok
}

// pack is the speed- and health-aware backfilling policy: scan in
// arrival order, admit the FIRST job that fits (jobs behind a blocked
// head may jump it), and place it on the FASTEST free nodes — a
// heterogeneous cluster's free set is not interchangeable, so placement
// quality is part of the policy. Placement also consults the
// allocator's outage outlook: free nodes with a scheduled down window
// overlapping the job's estimated run sort behind clean ones, so a job
// only lands on soon-to-fail nodes when nothing cleaner fits.
type pack struct{}

func (pack) Name() string { return "pack" }
func (pack) About() string {
	return "backfill first fitting job onto the fastest free nodes clear of forecast outages"
}
func (pack) Pick(queue []*Job, alloc *cluster.Allocator, est Estimator, nowMS float64) (int, []int, bool) {
	for i, j := range queue {
		if ranks, ok := steeredFastest(alloc, j.Width, est(j), nowMS); ok {
			return i, ranks, true
		}
	}
	return 0, nil, false
}

// steeredFastest returns the width fastest free ranks, speed-descending
// (ties to lower index), with the outage outlook folded in: the job's
// run window is estimated from its work on the width fastest free nodes
// (marked speed is Mflops = 1e3 flops/ms), and free nodes whose
// scheduled downtime intersects that window sort last — then by speed
// descending, index ascending, as always. Rank 0 of the job lands on
// the fastest clean node, wherever it sits in the shared cluster.
func steeredFastest(alloc *cluster.Allocator, width int, workFlops, nowMS float64) ([]int, bool) {
	free := alloc.FreeRanks()
	if len(free) < width {
		return nil, false
	}
	speeds := alloc.Cluster().Speeds()
	sort.SliceStable(free, func(a, b int) bool {
		if speeds[free[a]] != speeds[free[b]] {
			return speeds[free[a]] > speeds[free[b]]
		}
		return free[a] < free[b]
	})
	sum := 0.0
	for _, r := range free[:width] {
		sum += speeds[r]
	}
	untilMS := nowMS
	if workFlops > 0 && sum > 0 {
		untilMS += workFlops / (sum * 1e3)
	}
	sort.SliceStable(free, func(a, b int) bool {
		ra, rb := alloc.DownWithin(free[a], nowMS, untilMS), alloc.DownWithin(free[b], nowMS, untilMS)
		if ra != rb {
			return !ra
		}
		if speeds[free[a]] != speeds[free[b]] {
			return speeds[free[a]] > speeds[free[b]]
		}
		return free[a] < free[b]
	})
	return free[:width], true
}

// policies is the fixed registry, name-sorted.
var policies = []Policy{fcfs{}, pack{}, priority{}, sjf{}}

// Policies returns the registered policy names in sorted order.
func Policies() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.Name()
	}
	return names
}

// GetPolicy resolves a policy name.
func GetPolicy(name string) (Policy, error) {
	for _, p := range policies {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("job: unknown policy %q (registered: %s)", name, strings.Join(Policies(), ", "))
}
