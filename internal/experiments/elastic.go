package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/job"
)

// ElasticAutoscale is the canonical controller configuration of the
// elastic experiment: hold E_s at 0.10 ± 0.02 over 200 ms windows,
// starting from a deliberately tight 2-node provisioning so the ramp
// visibly outgrows it, with the machine ladder capped at 5 nodes.
func ElasticAutoscale() job.AutoscaleSpec {
	return job.AutoscaleSpec{
		TargetEs: 0.10,
		Band:     0.02,
		WindowMS: 200,
		MinP:     2,
		MaxP:     5,
		StartP:   2,
	}
}

// ElasticStream is the canonical load ramp: two Jacobi tenants whose
// combined arrival rate exceeds what the initial 2-node provisioning
// drains, so the backlog — and with it each job's wait — ramps up over
// the run. The job size (N = 64) is chosen so the controller's
// Definition-4 inversion sustains 4 nodes at the target efficiency:
// room to grow, and a reason to.
func ElasticStream() job.StreamSpec {
	return job.StreamSpec{Seed: 23, Tenants: []job.TenantSpec{
		{Name: "steady", Workload: "jacobi", N: 64, Width: 2, Jobs: 9, MeanGapMS: 110, Shape: 1},
		{Name: "surge", Workload: "jacobi", N: 64, Width: 2, Jobs: 9, MeanGapMS: 110, Shape: 3},
	}}
}

// Elastic runs the elasticity study: the canonical load ramp admitted
// under every registered policy, once with the isospeed autoscaler
// holding E_s and once at the fixed initial provisioning. The windowed
// table shows the controller's decisions next to both runs' achieved
// E_s; the summary compares how much of each run stayed at or above the
// set-point floor.
func (s *Suite) Elastic(ctx context.Context) ([]Renderable, error) {
	return s.ElasticWith(ctx, ElasticStream(), JobStreamP, job.Policies(), job.Options{
		Autoscale: ElasticAutoscale(),
	})
}

// ElasticWith is the parameterized core shared with the jobstream
// RunSpec kind when a membership or autoscale section is set: any
// stream, shared width, policy subset and scenario. Each policy's stream
// runs under the whole scenario and fixed — the same scenario without
// its Membership and Autoscale, so outages, retry and admission stay in
// both runs. With the autoscaler on, the fixed run is provisioned at
// StartP (extra nodes drained at t = 0) and the windowed E_s of both
// runs is reported side by side.
func (s *Suite) ElasticWith(ctx context.Context, stream job.StreamSpec, sharedP int, policies []string, scenario job.Options) ([]Renderable, error) {
	cl, jobs, elastic, err := s.streamSetup(stream, sharedP, scenario)
	if err != nil {
		return nil, err
	}
	membership, autoscale := elastic.Membership, elastic.Autoscale
	fixed := elastic
	fixed.Membership, fixed.Autoscale = cluster.MembershipPlan{}, job.AutoscaleSpec{}
	startP := sharedP
	if !autoscale.IsZero() {
		startP = autoscale.StartP
		if startP == 0 {
			startP = autoscale.MaxP
		}
		// The fixed baseline is the provisioning the elastic run started
		// from: the same shared cluster with every node above StartP
		// drained before the first arrival, and no controller.
		fixed.Membership = fixedDrainPlan(sharedP, startP)
	}

	var windows *Table
	if !autoscale.IsZero() {
		windows = &Table{
			Title: fmt.Sprintf("Elastic: windowed E_s, autoscaled vs fixed p = %d (target %.2f ± %.2f, %g ms windows)",
				startP, autoscale.TargetEs, autoscale.Band, autoscale.WindowMS),
			Headers: []string{
				"Policy", "Window close (ms)", "p", "Decision",
				"Jobs", "E_s elastic", "Jobs fixed", "E_s fixed",
			},
		}
	}
	summary := &Table{
		Title: fmt.Sprintf("Elastic: autoscaler vs fixed provisioning (%d shared nodes)", sharedP),
		Headers: []string{
			"Policy", "Makespan (ms)", "Fixed (ms)", "E_s held", "E_s held fixed",
			"Reconfigs", "Final p",
		},
	}
	for _, name := range policies {
		pol, err := job.GetPolicy(name)
		if err != nil {
			return nil, err
		}
		res, err := job.Simulate(ctx, cl, s.model, jobs, pol, elastic)
		if err != nil {
			return nil, fmt.Errorf("experiments: elastic %s: %w", name, err)
		}
		base, err := job.Simulate(ctx, cl, s.model, jobs, pol, fixed)
		if err != nil {
			return nil, fmt.Errorf("experiments: elastic %s (fixed): %w", name, err)
		}
		heldCol, heldFixedCol, finalPCol := "-", "-", "-"
		if !autoscale.IsZero() {
			resWin := windowEs(res, autoscale.WindowMS)
			baseWin := windowEs(base, autoscale.WindowMS)
			addWindowRows(windows, name, res.Scale, resWin, baseWin, autoscale.WindowMS)
			heldCol = fmtFloat(heldFraction(resWin, autoscale.TargetEs-autoscale.Band), 4)
			heldFixedCol = fmtFloat(heldFraction(baseWin, autoscale.TargetEs-autoscale.Band), 4)
			finalPCol = fmt.Sprintf("%d", finalActiveP(startP, res.Scale))
		}
		summary.AddRow(
			name,
			fmtFloat(res.MakespanMS, 1),
			fmtFloat(base.MakespanMS, 1),
			heldCol,
			heldFixedCol,
			fmt.Sprintf("%d", res.Reconfigs),
			finalPCol,
		)
	}
	notes := []string{
		fmt.Sprintf("stream seed %d: %s", stream.Seed, describeStream(stream)),
		fmt.Sprintf("membership: %s", membership.String()),
	}
	if !autoscale.IsZero() {
		notes = append(notes,
			fmt.Sprintf("autoscaler: hold E_s at %.2f ± %.2f over %g ms windows, %d..%d nodes, one planned move per window",
				autoscale.TargetEs, autoscale.Band, autoscale.WindowMS, autoscale.MinP, autoscale.MaxP),
			"held = fraction of windows with completions whose mean E_s stayed at or above the set-point floor (target - band); drifting below that floor is the failure the controller prevents",
			"grows and shrinks are planned membership changes: a shrink drains its node gracefully and never interrupts a running job")
	}
	if !elastic.Health.IsZero() || elastic.Retry != (job.RetrySpec{}) || !elastic.Admission.IsZero() {
		notes = append(notes, "fixed = the same scenario without membership and autoscaler: the outages, retry and admission of the fault study above run in both")
	}
	summary.Notes = append(summary.Notes, notes...)
	rend := []Renderable{summary}
	if windows != nil {
		windows.Notes = append(windows.Notes,
			"windowed E_s buckets every completed job by its finish instant, identically for both runs; '-' marks windows past the controller's last evaluation")
		rend = []Renderable{windows, summary}
	}
	return rend, nil
}

// fixedDrainPlan drains every node at or above startP before the first
// arrival: the membership spelling of "a cluster provisioned at startP".
func fixedDrainPlan(sharedP, startP int) cluster.MembershipPlan {
	if startP >= sharedP {
		return cluster.MembershipPlan{}
	}
	events := make([]cluster.MemberEvent, 0, sharedP-startP)
	for n := startP; n < sharedP; n++ {
		events = append(events, cluster.MemberEvent{Node: n, AtMS: 0, Op: cluster.OpDrain})
	}
	return cluster.MembershipPlan{Events: events}
}

// winStat is one window's completion aggregate.
type winStat struct {
	es   float64
	jobs int
}

// windowEs buckets a run's completed jobs into controller windows by
// finish instant — window i covers ((i-1)·W, i·W], the same attribution
// the autoscaler uses — so elastic and fixed runs are measured by one
// rule.
func windowEs(res job.Result, windowMS float64) map[int]winStat {
	out := map[int]winStat{}
	for _, jr := range res.Jobs {
		if jr.Status != job.StatusDone {
			continue
		}
		idx := int(math.Ceil(jr.FinishMS / windowMS))
		if idx < 1 {
			idx = 1
		}
		st := out[idx]
		st.es += jr.Es
		st.jobs++
		out[idx] = st
	}
	return out
}

// heldFraction is the fraction of windows with completions whose mean
// E_s stayed at or above floor.
func heldFraction(stats map[int]winStat, floor float64) float64 {
	total, held := 0, 0
	for _, st := range stats {
		if st.jobs == 0 {
			continue
		}
		total++
		if st.es/float64(st.jobs) >= floor {
			held++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(held) / float64(total)
}

// finalActiveP replays the controller's applied decisions over its
// samples to the final active node count.
func finalActiveP(startP int, samples []job.ScaleSample) int {
	p := startP
	for _, s := range samples {
		switch s.Decision {
		case "grow":
			p++
		case "shrink":
			p--
		}
	}
	return p
}

// addWindowRows emits one policy's window-by-window comparison: the
// controller's sample stream (active p and decision) joined with the
// bucketed E_s of the elastic and fixed runs.
func addWindowRows(tbl *Table, policy string, samples []job.ScaleSample, res, base map[int]winStat, windowMS float64) {
	last := len(samples)
	for idx := range res {
		if idx > last {
			last = idx
		}
	}
	for idx := range base {
		if idx > last {
			last = idx
		}
	}
	for idx := 1; idx <= last; idx++ {
		pCol, decCol, atMS := "-", "-", float64(idx)*windowMS
		if idx <= len(samples) {
			s := samples[idx-1]
			pCol = fmt.Sprintf("%d", s.ActiveP)
			decCol = s.Decision
			atMS = s.AtMS
		}
		esCol, jobsCol := "-", "0"
		if st, ok := res[idx]; ok && st.jobs > 0 {
			esCol = fmtFloat(st.es/float64(st.jobs), 4)
			jobsCol = fmt.Sprintf("%d", st.jobs)
		}
		baseEsCol, baseJobsCol := "-", "0"
		if st, ok := base[idx]; ok && st.jobs > 0 {
			baseEsCol = fmtFloat(st.es/float64(st.jobs), 4)
			baseJobsCol = fmt.Sprintf("%d", st.jobs)
		}
		if esCol == "-" && baseEsCol == "-" && decCol == "-" {
			continue // empty trailing window on both sides
		}
		tbl.AddRow(policy, fmtFloat(atMS, 0), pCol, decCol, jobsCol, esCol, baseJobsCol, baseEsCol)
	}
}
