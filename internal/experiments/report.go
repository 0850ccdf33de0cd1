package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/runner"
)

// WriteMarkdownReport runs the given experiments (all registered ones when
// ids is empty) and renders them as a single markdown document: one
// section per experiment, outputs in fenced code blocks. The experiments
// are scheduled on the concurrent runner (opts.Jobs workers) but the
// document order always follows ids. This is the self-generating
// counterpart of EXPERIMENTS.md.
func WriteMarkdownReport(ctx context.Context, s *Suite, w io.Writer, ids []string, generatedAt time.Time, opts runner.Options) error {
	if len(ids) == 0 {
		ids = IDs()
	}
	fmt.Fprintf(w, "# Reproduction report — Scalability of Heterogeneous Computing (ICPP 2005)\n\n")
	fmt.Fprintf(w, "Generated %s. Configuration: ladder %v, engine %s, GE target %.2f, MM target %.2f, %d sweep points.\n\n",
		generatedAt.Format(time.RFC3339), s.Cfg.Sizes, s.Cfg.Engine, s.Cfg.GETarget, s.Cfg.MMTarget, s.Cfg.SweepPoints)
	fmt.Fprintf(w, "## Contents\n\n")
	for _, id := range ids {
		exp, ok := Lookup(id)
		if !ok {
			return fmt.Errorf("experiments: unknown experiment %q in report", id)
		}
		fmt.Fprintf(w, "- **%s** — %s\n", id, exp.About)
	}
	fmt.Fprintln(w)
	outcomes, err := RunSelected(ctx, s, ids, opts)
	if err != nil {
		return fmt.Errorf("experiments: report: %w", err)
	}
	for _, o := range outcomes {
		exp, _ := Lookup(o.ID)
		fmt.Fprintf(w, "## %s\n\n%s\n\n", o.ID, exp.About)
		for _, r := range o.Renderables {
			fmt.Fprintf(w, "```text\n%s```\n\n", r.String())
		}
	}
	return nil
}
