package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config controls how the experiments run.
type Config struct {
	// Engine selects the execution engine for measurements.
	Engine mpi.Engine
	// Contended turns on shared-medium queueing (DES engine only).
	Contended bool
	// Sizes is the system-size ladder (default: the paper's 2,4,8,16,32).
	Sizes []int
	// AsymSizes is the asymptotic ladder: rung widths priced by the
	// closed-form To(n) models alone (no executed program), reaching far
	// beyond the executable Sizes (default: 10^2 .. 10^6).
	AsymSizes []int
	// GETarget and MMTarget are the speed-efficiency set-points of the
	// paper's read-offs (0.3 for GE, 0.2 for MM).
	GETarget float64
	MMTarget float64
	// SweepPoints is how many problem sizes are measured per efficiency
	// curve (>= 4).
	SweepPoints int
	// Seed drives all synthetic inputs.
	Seed int64
	// Trace, when non-nil, collects the virtual timeline of every
	// algorithm run the experiments execute under the configured engine
	// (ablations that force their own engine are excluded). The memo
	// cache executes each shared run point exactly once, so the collected
	// spans are deterministic regardless of the worker-pool size.
	Trace *trace.Trace
}

// Default returns the full-paper configuration.
func Default() Config {
	return Config{
		Engine:      mpi.EngineLive,
		Sizes:       append([]int(nil), cluster.PaperSizes...),
		AsymSizes:   []int{100, 1000, 10000, 100000, 1000000},
		GETarget:    0.3,
		MMTarget:    0.2,
		SweepPoints: 8,
		Seed:        20050614, // ICPP 2005
	}
}

// Quick returns a reduced configuration (smaller ladder, fewer sweep
// points) for tests and smoke runs.
func Quick() Config {
	cfg := Default()
	cfg.Sizes = []int{2, 4, 8}
	cfg.AsymSizes = []int{100, 1000, 10000}
	cfg.SweepPoints = 6
	return cfg
}

func (c Config) validate() error {
	if len(c.Sizes) == 0 {
		return errors.New("experiments: empty size ladder")
	}
	if len(c.AsymSizes) < 2 {
		return errors.New("experiments: asymptotic ladder needs at least two rungs")
	}
	for i, p := range c.AsymSizes {
		if p < 2 {
			return fmt.Errorf("experiments: asymptotic rung p = %d < 2", p)
		}
		if i > 0 && p <= c.AsymSizes[i-1] {
			return fmt.Errorf("experiments: asymptotic ladder not increasing at %d", p)
		}
	}
	if c.GETarget <= 0 || c.GETarget >= 1 || c.MMTarget <= 0 || c.MMTarget >= 1 {
		return fmt.Errorf("experiments: targets out of range: GE %g MM %g", c.GETarget, c.MMTarget)
	}
	if c.SweepPoints < 4 {
		return fmt.Errorf("experiments: SweepPoints %d < 4", c.SweepPoints)
	}
	return nil
}

func (c Config) mpiOpts() mpi.Options {
	o := mpi.Options{Engine: c.Engine, Trace: c.Trace}
	if c.Contended {
		o.Network = simnet.WireShared
	}
	return o
}

// Suite is the execution context shared by all experiments of one
// configuration. Expensive work — the measured scalability chains and
// every individual algorithm run point behind them — flows through a
// content-addressed memo cache with single-flight semantics, so
// experiments scheduled concurrently by the runner compute each shared
// (cluster, model, W) point exactly once and everything downstream is
// safe for concurrent use.
type Suite struct {
	Cfg Config

	// model is the communication cost model every measurement runs
	// under: the Sunwulf 100 Mb Ethernet calibration.
	model simnet.CostModel
	cache *runner.Cache
}

// chainResult is a measured scalability ladder for one algorithm.
type chainResult struct {
	Clusters []*cluster.Cluster
	Curves   []core.EfficiencyCurve
	Points   []core.ScalePoint
	Psis     []float64
}

// NewSuite validates the config and wraps it over cache, which holds
// every memoized result: experiment outcomes, measured chains and run
// points, each under a content-addressed signature of the inputs that
// can change it, so suites of different configurations may share one
// cache (nil: a private, memory-only cache). A traced suite always
// takes a private cache: a hit from a shared one would run nothing and
// record no spans.
func NewSuite(cfg Config, cache *runner.Cache) (*Suite, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	model, err := simnet.NewParamModel("sunwulf-100Mb", simnet.Sunwulf100())
	if err != nil {
		return nil, err
	}
	if cache == nil || cfg.Trace != nil {
		cache = runner.NewCache(nil)
	}
	return &Suite{Cfg: cfg, model: model, cache: cache}, nil
}

// cacheGeneration versions the *meaning* of persisted cache values: bump
// it whenever an experiment's output or a measured quantity changes for
// the same inputs, so stale disk entries from older builds read as
// misses instead of serving outdated results.
const cacheGeneration = 1

// baseSig seeds a signature with every config field that can change a
// measurement outcome.
func (s *Suite) baseSig(kind string) *runner.Signature {
	return runner.Sig(kind).
		Add("gen", cacheGeneration).
		Add("model", s.model.Name()).
		Add("engine", s.Cfg.Engine).
		Add("contended", s.Cfg.Contended).
		Add("seed", s.Cfg.Seed)
}

// clusterSig canonicalizes a cluster's content (rank order matters —
// rank i runs on Nodes[i]).
func clusterSig(cl *cluster.Cluster) string { return cl.Signature() }

// runPoint is one memoized algorithm execution: the workload performed
// and the virtual makespan — everything a core.Runner reports.
type runPoint struct {
	Work   float64
	TimeMS float64
}

// cachedRun executes one algorithm run point through the memo cache. The
// signature is the canonical run identity: algorithm, cluster content,
// cost model, engine + options, seed, and problem size (the workload W
// is a function of alg and n). extra carries any per-call variation
// (distribution strategy, fault plan, ...) that callers layer on top.
func (s *Suite) cachedRun(ctx context.Context, alg string, cl *cluster.Cluster, n int,
	run func(ctx context.Context) (runPoint, error), extra ...string) (runPoint, error) {
	sig := s.baseSig("run").
		Add("alg", alg).
		Add("cluster", clusterSig(cl)).
		Add("n", n)
	for _, e := range extra {
		sig.Add("extra", e)
	}
	return runner.DoPersist(ctx, s.cache, sig.Key(), runner.JSONCodec[runPoint](), func() (runPoint, error) {
		return run(ctx)
	})
}

// runnerFor builds a core.Runner for one workload on one cluster. Every
// point goes through the memo cache, keyed by the workload's name.
func (s *Suite) runnerFor(ctx context.Context, w workload.Workload, cl *cluster.Cluster) core.Runner {
	return func(n int) (float64, float64, error) {
		p, err := s.cachedRun(ctx, w.Name(), cl, n, func(ctx context.Context) (runPoint, error) {
			out, err := w.Run(ctx, cl, s.model, s.Cfg.mpiOpts(), workload.Spec{
				N:        n,
				Seed:     s.Cfg.Seed,
				Symbolic: true,
			})
			if err != nil {
				return runPoint{}, err
			}
			return runPoint{Work: out.Work, TimeMS: out.VirtualTime}, nil
		})
		if err != nil {
			return 0, 0, err
		}
		return p.Work, p.TimeMS, nil
	}
}

// machineFor builds the workload's analytic model (§4.5 for GE) under the
// suite's cost model.
func (s *Suite) machineFor(w workload.Workload, cl *cluster.Cluster) (core.AnalyticMachine, error) {
	return w.Machine(cl, s.model)
}

// targetFor maps a workload to its configured speed-efficiency set-point:
// the paper's GE and MM targets stay CLI-tunable through Config, every
// other workload reads its registered default.
func (s *Suite) targetFor(w workload.Workload) float64 {
	switch w.Name() {
	case "ge":
		return s.Cfg.GETarget
	case "mm":
		return s.Cfg.MMTarget
	default:
		return w.DefaultTarget()
	}
}

// studyOpts maps the suite configuration onto core.StudyOptions.
func (s *Suite) studyOpts(target float64) core.StudyOptions {
	return core.StudyOptions{TargetEff: target, SweepPoints: s.Cfg.SweepPoints}
}

// measureChain runs the full §4.4 procedure for one workload by
// delegating to core.RunStudy: per configuration, sweep problem sizes,
// fit the trend, read off the required N at the target efficiency, and
// assemble the ψ chain.
func (s *Suite) measureChain(ctx context.Context, w workload.Workload, clusters []*cluster.Cluster, target float64) (*chainResult, error) {
	targets := make([]core.StudyTarget, 0, len(clusters))
	for _, cl := range clusters {
		t, err := workload.Target(w, cl, s.model, s.runnerFor(ctx, w, cl))
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	study, err := core.RunStudy(targets, s.studyOpts(target))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &chainResult{Clusters: clusters, Psis: study.PsiMeasured}
	for _, r := range study.Rungs {
		res.Curves = append(res.Curves, r.Curve)
		res.Points = append(res.Points, core.ScalePoint{
			Label: r.Label, C: r.C, N: r.RequiredN, W: r.Work,
		})
	}
	return res, nil
}

// readOff measures a curve around the guess and reads the required size,
// widening the sweep when the target falls outside the measured range.
func (s *Suite) readOff(label string, c, target, guess float64, run core.Runner) (core.EfficiencyCurve, float64, error) {
	return core.ReadOffRequiredSize(label, c, target, guess, run, s.studyOpts(target))
}

// cachedChain memoizes one whole measured ladder under the memo cache:
// the first requester computes it, concurrent requesters wait and share
// it (a cache hit). This is how fig1/table2/table3/table4 scheduled in
// parallel run the GE sweep once.
func (s *Suite) cachedChain(ctx context.Context, alg string, target float64,
	build func(ctx context.Context) (*chainResult, error)) (*chainResult, error) {
	sig := s.baseSig("chain").
		Add("alg", alg).
		Add("target", target).
		Add("sizes", fmt.Sprint(s.Cfg.Sizes)).
		Add("sweepPoints", s.Cfg.SweepPoints)
	return runner.DoPersist(ctx, s.cache, sig.Key(), runner.JSONCodec[*chainResult](), func() (*chainResult, error) {
		return build(ctx)
	})
}

// cachedOutcome memoizes one whole experiment's renderable outputs under
// the memo cache, keyed by the experiment id and every config field that
// can change its output. With a persistent layer attached, a warm cache
// directory therefore serves entire experiments across process restarts
// without executing a single run.
func (s *Suite) cachedOutcome(ctx context.Context, id string,
	run func(ctx context.Context) ([]Renderable, error)) ([]Renderable, error) {
	sig := s.baseSig("outcome").
		Add("exp", id).
		Add("sizes", fmt.Sprint(s.Cfg.Sizes)).
		Add("asymSizes", fmt.Sprint(s.Cfg.AsymSizes)).
		Add("geTarget", s.Cfg.GETarget).
		Add("mmTarget", s.Cfg.MMTarget).
		Add("sweepPoints", s.Cfg.SweepPoints)
	return runner.DoPersist(ctx, s.cache, sig.Key(), renderableCodec(), func() ([]Renderable, error) {
		return run(ctx)
	})
}

// ladder builds one cluster per configured size with the given profile.
func ladder(sizes []int, config func(int) (*cluster.Cluster, error)) ([]*cluster.Cluster, error) {
	clusters := make([]*cluster.Cluster, 0, len(sizes))
	for _, p := range sizes {
		cl, err := config(p)
		if err != nil {
			return nil, err
		}
		clusters = append(clusters, cl)
	}
	return clusters, nil
}

// ChainMeasured returns (memoized) the measured ladder of one registered
// workload at the given speed-efficiency target: curves per
// configuration, required-N points, and the ψ chain.
func (s *Suite) ChainMeasured(ctx context.Context, w workload.Workload, target float64) (*chainResult, error) {
	return s.cachedChain(ctx, w.Name(), target, func(ctx context.Context) (*chainResult, error) {
		clusters, err := ladder(s.Cfg.Sizes, w.ClusterLadder)
		if err != nil {
			return nil, err
		}
		return s.measureChain(ctx, w, clusters, target)
	})
}

// GEChainMeasured returns (memoized) the measured GE ladder at the GE
// target.
func (s *Suite) GEChainMeasured(ctx context.Context) (*chainResult, error) {
	return s.ChainMeasured(ctx, workload.MustGet("ge"), s.Cfg.GETarget)
}

// MMChainMeasured returns (memoized) the measured MM ladder at the MM
// target.
func (s *Suite) MMChainMeasured(ctx context.Context) (*chainResult, error) {
	return s.ChainMeasured(ctx, workload.MustGet("mm"), s.Cfg.MMTarget)
}
