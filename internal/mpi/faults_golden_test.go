package mpi

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/faults.golden from current output")

// TestDifferentialFaultsGolden pins the runtime's fault arithmetic bit
// for bit, so a refactor of the send, retransmission or crash paths that
// moved all three engines alike still shows. Seeded random programs
// (randomProgram: Compute, Send, ISend, Bcast, Barrier, Gatherv,
// Scatterv, Allreduce) run on a heterogeneous cluster under three plans:
//   - seeded drops absorbed by the retry protocol, Send and ISend alike,
//     with ack timeouts short and long against the clocks: only a long
//     one keeps a one-ulp change to a backoff delay from rounding away;
//   - plan crashes, at an arbitrary instant and at the exact end of one
//     of the victim's charged spans and of one of its sends (a blocking
//     send ends on its transfer), the boundaries where an op-boundary
//     check and an in-charge check disagree;
//   - a drop storm that exhausts a two-retry budget.
//
// Each run prints the Float64bits of every rank's clock, compute and
// comm time, the traffic totals and the classified outcome. Every engine
// must print the golden's lines exactly.
func TestDifferentialFaultsGolden(t *testing.T) {
	speeds := []float64{37.2, 42.1, 89.5, 60, 75}
	cl := testCluster(t, speeds...)
	m := testModel(t)
	ctx := context.Background()
	p := cl.Size()

	render := func(t *testing.T, engine Engine) string {
		var b strings.Builder
		run := func(label string, prog Program, inj FaultInjector) {
			res, err := Run(ctx, cl, m, Options{Engine: engine, Faults: inj}, prog)
			out, ok := ClassifyFaults(p, err)
			if !ok {
				t.Fatalf("%s %v: non-fault failure: %v", label, engine, err)
			}
			fmt.Fprintf(&b, "%s clocks=%s compute=%s comm=%s msgs=%d bytes=%d crashed=%s aborted=%s survivors=%d\n",
				label, floatBits(res.RankClocks), floatBits(res.ComputeMS), floatBits(res.CommMS),
				res.Messages, res.BytesMoved, deathBits(out.Crashed), deathBits(out.Aborted), out.Survivors)
		}

		for _, timeout := range []float64{0.5, 20} {
			for seed := int64(0); seed < 8; seed++ {
				inj := planInjector(t, faults.Plan{Seed: seed, DropProb: 0.2, RetryTimeoutMS: timeout}, p)
				run(fmt.Sprintf("drops timeout=%g seed=%d", timeout, seed), randomProgram(seed+700, 30), inj)
			}
		}

		for seed := int64(0); seed < 6; seed++ {
			prog := randomProgram(seed+800, 30)
			tr := trace.New()
			base, err := Run(ctx, cl, m, Options{Engine: engine, Trace: tr}, prog)
			if err != nil {
				t.Fatalf("crash seed=%d %v baseline: %v", seed, engine, err)
			}
			victim := int(seed) % p
			var ends, sendEnds []float64
			for _, s := range tr.Spans() {
				if s.Rank == victim && s.Kind != trace.KindWait {
					ends = append(ends, s.EndMS)
					if s.Kind == trace.KindSend {
						sendEnds = append(sendEnds, s.EndMS)
					}
				}
			}
			if len(ends) == 0 || len(sendEnds) == 0 {
				t.Fatalf("crash seed=%d: rank %d charged %d spans, %d sends", seed, victim, len(ends), len(sendEnds))
			}
			for _, at := range []float64{0.4 * base.TimeMS, ends[len(ends)/2], sendEnds[len(sendEnds)/2]} {
				inj := planInjector(t, faults.Plan{Crashes: []faults.Crash{{Rank: victim, AtMS: at}}}, p)
				run(fmt.Sprintf("crash seed=%d rank=%d at=%016x", seed, victim, math.Float64bits(at)), prog, inj)
			}
		}

		for seed := int64(0); seed < 8; seed++ {
			inj := planInjector(t, faults.Plan{Seed: seed, DropProb: 0.4, RetryTimeoutMS: 0.25, MaxRetries: 2}, p)
			run(fmt.Sprintf("storm seed=%d", seed), randomProgram(seed+900, 30), inj)
		}
		return b.String()
	}

	path := filepath.Join("testdata", "faults.golden")
	for i, engine := range diffEngines {
		got := render(t, engine)
		if *update && i == 0 {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for k := 0; k < len(gl) && k < len(wl); k++ {
				if gl[k] != wl[k] {
					t.Fatalf("engine %v drifted from %s at line %d (rerun with -update to accept):\ngot:  %s\nwant: %s", engine, path, k+1, gl[k], wl[k])
				}
			}
			t.Fatalf("engine %v: %d lines, golden has %d", engine, len(gl), len(wl))
		}
	}
}

// floatBits prints each value as its 16 hex digits of Float64bits.
func floatBits(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return "[" + strings.Join(s, " ") + "]"
}

// deathBits prints a rank -> death time map in rank order, each time as
// its Float64bits.
func deathBits(at map[int]float64) string {
	ranks := make([]int, 0, len(at))
	for r := range at {
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	s := make([]string, len(ranks))
	for i, r := range ranks {
		s[i] = fmt.Sprintf("%d@%016x", r, math.Float64bits(at[r]))
	}
	return "{" + strings.Join(s, " ") + "}"
}
