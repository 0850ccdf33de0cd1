package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/runner"
)

// Outcome is one experiment's scheduled result.
type Outcome struct {
	ID          string
	Renderables []Renderable
	Elapsed     time.Duration
}

// RunSelected schedules the given experiments on the concurrent runner
// and returns their outcomes in the given order, regardless of worker
// count or completion order. Experiments executing concurrently share
// measurement sweeps through the suite's memo cache, so a batch never
// computes a (cluster, model, W) run point twice. On failure the
// returned error is the one a serial execution would have hit first.
// opts sizes the worker pool and receives the per-experiment hooks.
func RunSelected(ctx context.Context, s *Suite, ids []string, opts runner.Options) ([]Outcome, error) {
	tasks := make([]runner.Task, len(ids))
	for i, id := range ids {
		exp, ok := Lookup(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		tasks[i] = runner.Task{
			ID: exp.ID,
			Run: func(ctx context.Context) (any, error) {
				rs, err := s.cachedOutcome(ctx, exp.ID, func(ctx context.Context) ([]Renderable, error) {
					return exp.Run(ctx, s)
				})
				if err != nil {
					return nil, err
				}
				return rs, nil
			},
		}
	}
	results, err := runner.Run(ctx, tasks, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	outcomes := make([]Outcome, len(results))
	for i, r := range results {
		outcomes[i] = Outcome{
			ID:          r.ID,
			Renderables: r.Value.([]Renderable),
			Elapsed:     r.Elapsed,
		}
	}
	return outcomes, nil
}

// Flatten concatenates the outcomes' renderables in order.
func Flatten(outcomes []Outcome) []Renderable {
	var out []Renderable
	for _, o := range outcomes {
		out = append(out, o.Renderables...)
	}
	return out
}
