package spec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scanGeneration versions the meaning of persisted scan results (rungs
// and whole faultscan and jobstream outputs); bump it when their
// computation changes for the same spec so stale disk entries read as
// misses.
const scanGeneration = 1

// ExecutorOptions configures an Executor.
type ExecutorOptions struct {
	// Jobs bounds each run's own worker pool (<= 0: one per CPU).
	Jobs int
	// Pool, when non-nil, additionally bounds execution across every
	// run this executor serves concurrently — the server-mode cap.
	Pool *runner.Pool
	// CacheDir, when non-empty, persists results on disk: experiment
	// outcomes, chains and run points, scan rungs and whole faultscan
	// and jobstream outputs are stored content-addressed under this
	// directory and survive restarts.
	CacheDir string
	// CacheMaxBytes caps the persistent layer's total size; least
	// recently used entries are evicted past it (0: unbounded).
	CacheMaxBytes int64
	// Hooks receives per-experiment progress callbacks (experiments
	// kind only; may be invoked concurrently).
	Hooks runner.Hooks
}

// Executor runs RunSpecs. It is safe for concurrent use: every run
// memoizes through one single-flight cache, which holds the executor's
// only handle on the persistent layer, so runs of any spec share each
// result whose content-addressed key they share; an optional shared
// pool bounds total concurrency no matter how many runs are in flight.
// Both CLIs and the HTTP server execute through this type, which is
// what makes their outputs byte-identical for the same spec.
type Executor struct {
	opts  ExecutorOptions
	cache *runner.Cache
}

// NewExecutor builds an executor; with a CacheDir the persistent layer
// is opened (and created) immediately so an unusable directory fails
// fast.
func NewExecutor(opts ExecutorOptions) (*Executor, error) {
	var disk *runner.DiskCache
	if opts.CacheDir != "" {
		d, err := runner.OpenDiskCache(opts.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		if err := d.SetMaxBytes(opts.CacheMaxBytes); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		disk = d
	}
	return &Executor{opts: opts, cache: runner.NewCache(disk)}, nil
}

// CacheDir returns the persistent cache directory ("" when memory-only).
func (e *Executor) CacheDir() string { return e.opts.CacheDir }

// Pool returns the shared execution pool (nil when each run bounds only
// itself).
func (e *Executor) Pool() *runner.Pool { return e.opts.Pool }

// CacheStats returns the hit/miss counters of the executor's cache.
func (e *Executor) CacheStats() runner.Stats { return e.cache.Stats() }

// Run normalizes, validates and executes rs, writing the rendered
// result to out. The bytes written are identical for every Jobs/Pool
// setting and identical across the CLI and server front-ends.
func (e *Executor) Run(ctx context.Context, rs RunSpec, out io.Writer) error {
	if err := rs.Normalize(); err != nil {
		return err
	}
	if err := rs.Validate(); err != nil {
		return err
	}
	switch rs.Kind {
	case KindExperiments:
		suite, err := e.Suite(rs)
		if err != nil {
			return err
		}
		return e.runExperiments(ctx, rs, suite, out)
	case KindScalescan:
		return e.runScalescan(ctx, rs, out)
	case KindFaultscan:
		return e.runWhole(ctx, rs, out, faultscanBody)
	case KindJobstream:
		return e.runWhole(ctx, rs, out, jobstreamBody)
	default:
		return fmt.Errorf("spec: unknown kind %q", rs.Kind)
	}
}

// ErrNotTraceable is RunTrace's refusal of a spec of any kind but
// experiments, before anything runs.
var ErrNotTraceable = errors.New("spec: tracing applies only to kind experiments")

// RunTrace executes an experiments-kind spec with timeline collection:
// the rendered result goes to out and the Chrome trace-event JSON of
// every algorithm run to traceOut. Tracing requires fresh executions,
// so this path runs on a private, memory-only cache and bypasses the
// executor's (a restored result executes no runs and would collect no
// spans).
func (e *Executor) RunTrace(ctx context.Context, rs RunSpec, out, traceOut io.Writer) error {
	if err := rs.Normalize(); err != nil {
		return err
	}
	if err := rs.Validate(); err != nil {
		return err
	}
	if rs.Kind != KindExperiments {
		return fmt.Errorf("%w, not %s", ErrNotTraceable, rs.Kind)
	}
	cfg, err := rs.SuiteConfig()
	if err != nil {
		return err
	}
	cfg.Trace = trace.New()
	suite, err := experiments.NewSuite(cfg, nil)
	if err != nil {
		return err
	}
	if err := e.runExperiments(ctx, rs, suite, out); err != nil {
		return err
	}
	return cfg.Trace.WriteChromeTrace(traceOut)
}

// Suite returns an experiment suite for rs's configuration over the
// executor's cache. A suite is a light view: each run builds its own,
// and the cache's content-addressed keys let runs of every
// configuration share what they have in common — `-exp table2 -csv`
// and `-exp all` runs of one configuration compute their overlap once.
func (e *Executor) Suite(rs RunSpec) (*experiments.Suite, error) {
	cfg, err := rs.SuiteConfig()
	if err != nil {
		return nil, err
	}
	return experiments.NewSuite(cfg, e.cache)
}

// runExperiments resolves the selector and schedules the experiments on
// suite.
func (e *Executor) runExperiments(ctx context.Context, rs RunSpec, suite *experiments.Suite, out io.Writer) error {
	renderer, err := experiments.NewRenderer(rs.Format)
	if err != nil {
		return err
	}
	ids, err := experiments.Resolve(rs.Experiments)
	if err != nil {
		return err
	}
	opts := runner.Options{Jobs: e.opts.Jobs, Hooks: e.opts.Hooks, Pool: e.opts.Pool}
	outcomes, err := experiments.RunSelected(ctx, suite, ids, opts)
	if err != nil {
		return err
	}
	return renderer.Render(out, experiments.Flatten(outcomes))
}

// scanRung is one memoized scalescan measurement: the required problem
// size and workload at the target efficiency for one cluster.
type scanRung struct {
	N int
	W float64
}

// runScalescan executes a scalescan-kind spec: the closed-form
// asymptotic mode when AsymSizes is set, else the measured ladder.
func (e *Executor) runScalescan(ctx context.Context, rs RunSpec, out io.Writer) error {
	renderer, err := experiments.NewRenderer(rs.Format)
	if err != nil {
		return err
	}
	w, err := workload.Get(rs.Workload)
	if err != nil {
		return err
	}
	model, err := SunwulfModel()
	if err != nil {
		return err
	}
	if len(rs.AsymSizes) > 0 {
		return runAsym(out, renderer, w, model, rs.Target, rs.AsymSizes)
	}
	engine, err := ParseEngine(rs.Engine)
	if err != nil {
		return err
	}
	clusters, err := rs.Ladder.BuildAll()
	if err != nil {
		return err
	}

	// Each rung's sweep is independent: measure them on the worker
	// pool, memoized so repeated scans (and restarts, with a cache
	// directory) skip the sweep. Results come back in ladder order
	// regardless of completion order.
	tasks := make([]runner.Task, len(clusters))
	for i, cl := range clusters {
		cl := cl
		tasks[i] = runner.Task{
			ID: cl.Name,
			Run: func(ctx context.Context) (any, error) {
				sig := runner.Sig("scanRung").
					Add("gen", scanGeneration).
					Add("workload", w.Name()).
					Add("target", rs.Target).
					Add("engine", engine).
					Add("model", model.Name()).
					Add("cluster", cl.Signature())
				return runner.DoPersist(ctx, e.cache, sig.Key(), runner.JSONCodec[scanRung](), func() (scanRung, error) {
					n, work, err := requiredSize(ctx, w, cl, model, rs.Target, engine)
					if err != nil {
						return scanRung{}, err
					}
					return scanRung{N: n, W: work}, nil
				})
			},
		}
	}
	measured, err := runner.Run(ctx, tasks, runner.Options{Jobs: e.opts.Jobs, Pool: e.opts.Pool})
	if err != nil {
		return err
	}

	points := make([]core.ScalePoint, 0, len(clusters))
	tbl := &experiments.Table{
		Title:   fmt.Sprintf("Isospeed-efficiency scan: %s at E_s = %.2f", strings.ToUpper(w.Name()), rs.Target),
		Headers: []string{"Cluster", "p", "Marked speed (Mflops)", "Required N", "Workload W (flops)"},
	}
	for i, cl := range clusters {
		r := measured[i].Value.(scanRung)
		points = append(points, core.ScalePoint{Label: cl.Name, C: cl.MarkedSpeed(), N: r.N, W: r.W})
		tbl.AddRow(cl.Name, fmt.Sprintf("%d", cl.Size()),
			fmt.Sprintf("%.1f", cl.MarkedSpeed()), fmt.Sprintf("%d", r.N), fmt.Sprintf("%.3e", r.W))
	}
	psis, err := core.PsiChain(points)
	if err != nil {
		return err
	}
	psiRow := make([]string, 0, len(psis))
	psiHdr := make([]string, 0, len(psis))
	for i, psi := range psis {
		psiHdr = append(psiHdr, fmt.Sprintf("ψ(%s,%s)", points[i].Label, points[i+1].Label))
		psiRow = append(psiRow, fmt.Sprintf("%.4f", psi))
	}
	psiTbl := &experiments.Table{Title: "Scalability chain", Headers: psiHdr, Rows: [][]string{psiRow}}

	if err := renderer.Render(out, []experiments.Renderable{tbl, psiTbl}); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return nil
}

// asymHiN bounds the required-size solve for asymptotic rungs: the
// measured-mode bracket (5e6) is far too small once p reaches
// 10^5..10^6, where the isospeed problem size grows roughly linearly
// with p.
const asymHiN = 1e12

// runAsym prices the workload's own ladder at the given system sizes
// purely in closed form: no programs execute, each rung is an analytic
// RequiredN solve over the workload's machine model, so p = 10^6 rungs
// complete in seconds. Nothing is cached — the solve is cheaper than a
// disk round trip.
func runAsym(out io.Writer, renderer experiments.Renderer, w workload.Workload, model simnet.CostModel, target float64, sizes []int) error {
	machines := make([]core.AnalyticMachine, len(sizes))
	for i, p := range sizes {
		cl, err := w.ClusterLadder(p)
		if err != nil {
			return fmt.Errorf("rung p=%d: %v", p, err)
		}
		m, err := w.Machine(cl, model)
		if err != nil {
			return fmt.Errorf("rung p=%d: %v", p, err)
		}
		machines[i] = m
	}
	preds, psiDef, psiThm, err := core.PredictChain(machines, target, 8, asymHiN)
	if err != nil {
		return err
	}
	tbl := &experiments.Table{
		Title: fmt.Sprintf("Asymptotic isospeed ladder (closed form): %s at E_s = %.2f",
			strings.ToUpper(w.Name()), target),
		Headers: []string{"Cluster", "p", "Marked speed (Mflops)", "Required N (model)", "W (flops)", "t0+To at N (ms)"},
		Notes: []string{
			"Rungs are priced by the symbolic cost model only — no programs execute at these widths.",
			"Validity: the same pricing is bit-identical to the DES engine at every executable p (differential suites); contention and pipelining effects are outside the closed form.",
		},
	}
	for i, pr := range preds {
		tbl.AddRow(pr.Label, fmt.Sprintf("%d", sizes[i]), fmt.Sprintf("%.1f", pr.C),
			fmt.Sprintf("%.0f", pr.N), fmt.Sprintf("%.3e", pr.W), fmt.Sprintf("%.3e", pr.T0+pr.To))
	}
	psiTbl := &experiments.Table{
		Title:   "Scalability chain (definition vs Theorem 1 closed form)",
		Headers: []string{"Link", "ψ (definition)", "ψ (Theorem 1)", "To/To' (Corollary 2)"},
	}
	for i := range psiDef {
		cor2, err := core.Corollary2Psi(preds[i].To, preds[i+1].To)
		if err != nil {
			return err
		}
		psiTbl.AddRow(fmt.Sprintf("%s -> %s", preds[i].Label, preds[i+1].Label),
			fmt.Sprintf("%.4f", psiDef[i]), fmt.Sprintf("%.4f", psiThm[i]), fmt.Sprintf("%.4f", cor2))
	}
	if err := renderer.Render(out, []experiments.Renderable{tbl, psiTbl}); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return nil
}

// requiredSize runs the measurement pipeline for one cluster: analytic
// guess from the workload's machine model, sweep, trend fit, read-off.
func requiredSize(ctx context.Context, w workload.Workload, cl *cluster.Cluster, model simnet.CostModel, target float64, engine mpi.Engine) (int, float64, error) {
	machine, err := w.Machine(cl, model)
	if err != nil {
		return 0, 0, err
	}
	run := workload.Runner(ctx, w, cl, model, mpi.Options{Engine: engine}, workload.Spec{Symbolic: true})
	guess, err := machine.RequiredN(target, 8, 5e6)
	if err != nil {
		return 0, 0, err
	}
	sizes := make([]int, 0, 8)
	prev := 0
	for i := 0; i < 8; i++ {
		v := int(math.Round(guess * (0.45 + 1.35*float64(i)/7)))
		if v <= prev {
			v = prev + 1
		}
		sizes = append(sizes, v)
		prev = v
	}
	curve, err := core.MeasureCurve(cl.Name, cl.MarkedSpeed(), sizes, 3, run)
	if err != nil {
		return 0, 0, err
	}
	nReq, err := curve.RequiredSize(target)
	if err != nil {
		return 0, 0, err
	}
	n := int(math.Round(nReq))
	return n, w.WorkAt(n), nil
}

// runWhole executes a faultscan- or jobstream-kind spec through body,
// memoizing the whole rendered output under the spec's own canonical
// key. Both are deterministic by construction — every fault draw
// derives from the plan seed, and job arrivals are seeded on the DES
// clock with the engines bit-identical in virtual time — so equal specs
// produce equal bytes.
func (e *Executor) runWhole(ctx context.Context, rs RunSpec, out io.Writer, body func(context.Context, RunSpec, io.Writer) error) error {
	key, err := rs.Key()
	if err != nil {
		return err
	}
	sig := runner.Sig(rs.Kind).Add("gen", scanGeneration).Add("spec", key)
	data, err := runner.DoPersist(ctx, e.cache, sig.Key(), runner.JSONCodec[[]byte](), func() ([]byte, error) {
		var buf bytes.Buffer
		if err := body(ctx, rs, &buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		return err
	}
	_, err = out.Write(data)
	return err
}

// jobstreamBody simulates the stream under every selected policy on one
// shared cluster and renders the studies its sections select: the fault
// study when nodeFaults, retry or admission is set, then the elastic
// study when membership or autoscale is set, and the plain study when
// neither is.
func jobstreamBody(ctx context.Context, rs RunSpec, out io.Writer) error {
	renderer, err := experiments.NewRenderer(rs.Format)
	if err != nil {
		return err
	}
	eng, err := ParseEngine(rs.Engine)
	if err != nil {
		return err
	}
	cfg := experiments.Default()
	cfg.Engine = eng
	cfg.Seed = rs.Seed
	suite, err := experiments.NewSuite(cfg, nil)
	if err != nil {
		return err
	}
	// One scenario from whichever sections are set, with one memo for
	// every Simulate call of the studies it renders. Each study compares
	// the whole scenario against the same scenario without its own
	// sections; Normalize guarantees Retry is set whenever NodeFaults is.
	scenario := job.Options{
		Health: orZero(rs.NodeFaults), Retry: orZero(rs.Retry), Admission: orZero(rs.Admission),
		Membership: orZero(rs.Membership), Autoscale: orZero(rs.Autoscale),
		Memo: new(job.Memo),
	}
	faulted := rs.NodeFaults != nil || rs.Retry != nil || rs.Admission != nil
	elastic := rs.Membership != nil || rs.Autoscale != nil
	var rend []experiments.Renderable
	if faulted {
		r, err := suite.JobStreamFaultsWith(ctx, *rs.Stream, rs.SharedP, rs.Policies, scenario)
		if err != nil {
			return err
		}
		rend = append(rend, r...)
	}
	if elastic {
		r, err := suite.ElasticWith(ctx, *rs.Stream, rs.SharedP, rs.Policies, scenario)
		if err != nil {
			return err
		}
		rend = append(rend, r...)
	}
	if !faulted && !elastic {
		if rend, err = suite.JobStreamWith(ctx, *rs.Stream, rs.SharedP, rs.Policies); err != nil {
			return err
		}
	}
	return renderer.Render(out, rend)
}

// orZero returns *p, or the zero value when p is nil.
func orZero[T any](p *T) (v T) {
	if p != nil {
		v = *p
	}
	return v
}

// faultscanBody is the fault study itself: one healthy run, one run
// under the plan (optionally with checkpoint/rollback recovery), and
// the ψ comparison table.
func faultscanBody(ctx context.Context, rs RunSpec, out io.Writer) error {
	eng, err := ParseEngine(rs.Engine)
	if err != nil {
		return err
	}
	renderer, err := experiments.NewRenderer(rs.Format)
	if err != nil {
		return err
	}
	w, err := workload.Get(rs.Workload)
	if err != nil {
		return err
	}
	cl, err := w.ClusterLadder(rs.P)
	if err != nil {
		return err
	}
	model, err := SunwulfModel()
	if err != nil {
		return err
	}
	plan, err := rs.Faults.Instantiate(cl.Size())
	if err != nil {
		return err
	}
	dcl, dmodel, inj, err := plan.Apply(cl, model)
	if err != nil {
		return err
	}

	// The distribution stays pinned to the nominal speeds: runtime
	// degradation is invisible to the scheduler, as in the fault
	// studies.
	rspec := workload.Spec{N: rs.N, Symbolic: true, PinnedSpeeds: cl.Speeds()}
	opts := mpi.Options{Engine: eng}
	base, err := w.Run(ctx, cl, model, opts, rspec)
	if err != nil {
		return fmt.Errorf("fault-free baseline: %w", err)
	}
	baseEff, err := core.SpeedEfficiency(base.Work, base.Stats.TimeMS, cl.MarkedSpeed())
	if err != nil {
		return err
	}

	tbl := &experiments.Table{
		Title: fmt.Sprintf("Fault scan: %s at N = %d on %s (engine %s, nominal C = %.1f Mflops)",
			strings.ToUpper(w.Name()), rs.N, cl.Name, eng, cl.MarkedSpeed()),
		Headers: []string{"Run", "C_eff (Mflops)", "T (ms)", "Messages", "Bytes", "E_s @ nominal C", "ψ vs fault-free"},
	}
	tbl.AddRow("fault-free", fmt.Sprintf("%.1f", cl.MarkedSpeed()),
		fmt.Sprintf("%.3f", base.Stats.TimeMS), fmt.Sprintf("%d", base.Stats.Messages),
		fmt.Sprintf("%d", base.Stats.BytesMoved), fmt.Sprintf("%.4f", baseEff), "1.0000")

	fopts := opts
	if !plan.IsZero() {
		fopts.Faults = inj
	}
	if rs.Recover {
		rcfg := workload.RecoveryConfig{IntervalSteps: rs.CkptInterval}
		faulted, rec, err := w.RunRecovered(ctx, dcl, dmodel, fopts, rspec, rcfg)
		if err != nil {
			return fmt.Errorf("recovered run: %w", err)
		}
		eff, err := core.SpeedEfficiency(faulted.Work, rec.TimeMS, cl.MarkedSpeed())
		if err != nil {
			return err
		}
		tbl.AddRow("recovered", fmt.Sprintf("%.1f", dcl.MarkedSpeed()),
			fmt.Sprintf("%.3f", rec.TimeMS), fmt.Sprintf("%d", rec.Messages),
			fmt.Sprintf("%d", rec.BytesMoved), fmt.Sprintf("%.4f", eff),
			fmt.Sprintf("%.4f", eff/baseEff))
		tbl.Notes = append(tbl.Notes, describeRecovery(rec, rs.CkptInterval)...)
		return finishFaultTable(renderer, out, tbl, plan)
	}
	faulted, runErr := w.Run(ctx, dcl, dmodel, fopts, rspec)
	if runErr != nil {
		outcome, ok := mpi.ClassifyFaults(cl.Size(), runErr)
		if !ok {
			return runErr
		}
		tbl.AddRow("faulted", fmt.Sprintf("%.1f", dcl.MarkedSpeed()),
			"DNF", "-", "-", "-", "-")
		tbl.Notes = append(tbl.Notes, describeOutcome(outcome))
	} else {
		eff, err := core.SpeedEfficiency(faulted.Work, faulted.Stats.TimeMS, cl.MarkedSpeed())
		if err != nil {
			return err
		}
		tbl.AddRow("faulted", fmt.Sprintf("%.1f", dcl.MarkedSpeed()),
			fmt.Sprintf("%.3f", faulted.Stats.TimeMS), fmt.Sprintf("%d", faulted.Stats.Messages),
			fmt.Sprintf("%d", faulted.Stats.BytesMoved), fmt.Sprintf("%.4f", eff),
			fmt.Sprintf("%.4f", eff/baseEff))
	}
	return finishFaultTable(renderer, out, tbl, plan)
}

// finishFaultTable appends the shared provenance notes and renders.
func finishFaultTable(renderer experiments.Renderer, out io.Writer, tbl *experiments.Table, plan faults.Plan) error {
	tbl.Notes = append(tbl.Notes,
		"plan: "+plan.String(),
		"distribution is pinned to nominal speeds (blind to runtime degradation)",
		"all fault draws derive from the plan seed: identical invocations reproduce this output byte-identically")
	return renderer.Render(out, []experiments.Renderable{tbl})
}

// describeRecovery renders the rollback history as deterministic notes.
func describeRecovery(rec mpi.RecoveredResult, interval int) []string {
	notes := []string{fmt.Sprintf(
		"recovery: %d attempt(s), %d checkpoint(s) committed (interval %d, %.3f ms spent writing)",
		rec.Attempts, rec.Checkpoints, interval, rec.CheckpointMS)}
	for _, ev := range rec.Events {
		notes = append(notes, fmt.Sprintf(
			"attempt %d failed at %.3f ms (%s), resumed %d survivor(s) at %.3f ms from snapshot %d",
			ev.Attempt+1, ev.FailedAtMS, describeOutcome(ev.Outcome), len(ev.Survivors), ev.ResumeMS, ev.ResumeSeq))
	}
	return notes
}

// describeOutcome renders a fault outcome as one deterministic note line.
func describeOutcome(o mpi.FaultOutcome) string {
	part := func(label string, m map[int]float64) string {
		if len(m) == 0 {
			return label + " none"
		}
		ranks := make([]int, 0, len(m))
		for r := range m {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		items := make([]string, len(ranks))
		for i, r := range ranks {
			items[i] = fmt.Sprintf("%d@%.3fms", r, m[r])
		}
		return label + " " + strings.Join(items, " ")
	}
	return fmt.Sprintf("outcome: %s; %s; %d survivors",
		part("crashed", o.Crashed), part("aborted", o.Aborted), o.Survivors)
}
