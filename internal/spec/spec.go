// Package spec defines the canonical RunSpec: the one versioned
// description of a capacity-planning run that every front-end shares.
// The hetsim, scalescan and faultscan CLIs parse their flags into a
// RunSpec; `hetsim -serve` accepts the same RunSpec over HTTP; and the
// executor runs either one through the same code path, so a POSTed spec
// and its CLI spelling produce byte-identical output.
//
// A RunSpec has a stable canonical encoding: Normalize fills every
// defaulted field (and expands sugar like Quick into the explicit
// ladder it denotes), Validate rejects contradictions and fields that
// do not apply to the spec's kind, and Canonical marshals the result
// with encoding/json — field order fixed by declaration order. That
// canonical byte string IS the cache signature: Key (its SHA-256) is
// the content address under which the persistent result cache stores
// the run's outcome.
//
// An Executor memoizes through one runner.Cache that holds every result
// of every kind — experiment outcomes with the chains and run points
// behind them, scalescan rungs, whole faultscan and jobstream outputs —
// and owns the only handle on the persistent layer. Over a cache
// directory it keeps the 64 most recently used results in memory; a run
// canceled mid-computation leaves nothing behind.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Version is the current RunSpec schema version. Decoders reject other
// versions instead of guessing: the canonical encoding doubles as a
// cache signature, so two processes must never disagree about what a
// spec means.
const Version = 1

// The spec kinds: which study a RunSpec describes.
const (
	// KindExperiments reproduces registered experiments (the paper's
	// tables and figures) — hetsim's domain.
	KindExperiments = "experiments"
	// KindScalescan runs an isospeed-efficiency scan over a
	// user-described cluster ladder (or a closed-form asymptotic one) —
	// scalescan's domain.
	KindScalescan = "scalescan"
	// KindFaultscan prices a fault plan against the fault-free baseline
	// — faultscan's domain.
	KindFaultscan = "faultscan"
	// KindJobstream simulates a multi-tenant job stream on one shared
	// cluster under lease-based scheduling policies.
	KindJobstream = "jobstream"
)

// RunSpec is the canonical description of one run. Field declaration
// order is load-bearing: Canonical marshals in this order, and the
// bytes are content addresses. Add new fields at the end of their
// section and bump Version when a change alters the meaning of
// existing encodings.
//
// Fields apply per Kind; Validate rejects a spec that sets fields its
// kind does not read, so a canonical encoding never carries silently
// ignored knobs.
type RunSpec struct {
	// Version is the schema version (0 normalizes to Version).
	Version int `json:"version"`
	// Kind selects the study: experiments, scalescan or faultscan.
	Kind string `json:"kind"`
	// Format is the renderer: "text" (default), "csv" or "json".
	Format string `json:"format,omitempty"`
	// Engine is the execution engine for measured runs: "live"
	// (default), "des" or "symbolic".
	Engine string `json:"engine,omitempty"`

	// Experiments (kind experiments) is the selector: an experiment id,
	// "all", "quick", or "group:<name>".
	Experiments string `json:"experiments,omitempty"`
	// Quick (kind experiments) is input sugar for the reduced
	// configuration; Normalize expands it into explicit Sizes,
	// AsymSizes and SweepPoints and clears it, so the canonical
	// encoding is unambiguous.
	Quick bool `json:"quick,omitempty"`
	// Contended (kind experiments) turns on shared-medium queueing
	// (DES engine only).
	Contended bool `json:"contended,omitempty"`
	// Sizes (kind experiments) is the measured system-size ladder.
	Sizes []int `json:"sizes,omitempty"`
	// AsymSizes is the closed-form asymptotic ladder. For kind
	// experiments it configures the asymptotic experiments; for kind
	// scalescan it selects the closed-form mode (mutually exclusive
	// with Ladder).
	AsymSizes []int `json:"asymSizes,omitempty"`
	// SweepPoints (kind experiments) is problem sizes per efficiency
	// curve.
	SweepPoints int `json:"sweepPoints,omitempty"`
	// GETarget and MMTarget (kind experiments) are the paper's
	// speed-efficiency set-points.
	GETarget float64 `json:"geTarget,omitempty"`
	MMTarget float64 `json:"mmTarget,omitempty"`
	// Seed (kind experiments) drives all synthetic inputs.
	Seed int64 `json:"seed,omitempty"`

	// Workload (kinds scalescan, faultscan) is a registered workload
	// name (default "ge").
	Workload string `json:"workload,omitempty"`
	// Target (kind scalescan) is the speed-efficiency set-point
	// (default: the workload's own).
	Target float64 `json:"target,omitempty"`
	// Ladder (kind scalescan) is the embedded cluster ladder — the
	// contents of a `scalescan -ladder` file, with any `-speeds`
	// overrides already applied, so the spec is self-contained.
	Ladder *cluster.LadderSpec `json:"ladder,omitempty"`

	// P and N (kind faultscan) are the system and problem size.
	P int `json:"p,omitempty"`
	N int `json:"n,omitempty"`
	// Faults (kind faultscan) is the embedded fault plan — the
	// contents of a `faultscan -spec` file, or the plan derived from
	// `-intensity` by the CLI.
	Faults *faults.Spec `json:"faults,omitempty"`
	// Recover (kind faultscan) survives crashes with
	// checkpoint/rollback recovery.
	Recover bool `json:"recover,omitempty"`
	// CkptInterval (kind faultscan, with Recover) is the checkpoint
	// cadence in algorithm steps; 0 means restart from scratch and is
	// never defaulted away.
	CkptInterval int `json:"ckptInterval,omitempty"`

	// Stream (kind jobstream) is the embedded multi-tenant job stream;
	// defaults to the canonical three-tenant scenario.
	Stream *job.StreamSpec `json:"stream,omitempty"`
	// Policies (kind jobstream) selects the scheduling policies to
	// compare; defaults to every registered policy.
	Policies []string `json:"policies,omitempty"`
	// SharedP (kind jobstream) is the shared cluster width.
	SharedP int `json:"sharedP,omitempty"`
	// NodeFaults (kind jobstream) is the node down/up schedule on the
	// shared cluster's virtual clock; nil (or the zero spec) keeps
	// every node healthy and reproduces the undisturbed stream exactly.
	NodeFaults *cluster.HealthSpec `json:"nodeFaults,omitempty"`
	// Retry (kind jobstream) bounds requeues of jobs whose lease lost
	// every node and sets the checkpoint cadence of fault-scheduled
	// runs. Defaulted when NodeFaults is set; inert without it.
	Retry *job.RetrySpec `json:"retry,omitempty"`
	// Admission (kind jobstream) is the control in front of the queue:
	// per-tenant queue caps and a shed deadline. Meaningful with or
	// without NodeFaults.
	Admission *job.AdmissionSpec `json:"admission,omitempty"`
	// Membership (kind jobstream) is the planned drain/join schedule on
	// the shared cluster's virtual clock — elasticity as planned
	// reconfiguration. Nil (or the zero plan) keeps membership fixed and
	// reproduces the prior canonical bytes exactly.
	Membership *cluster.MembershipPlan `json:"membership,omitempty"`
	// Autoscale (kind jobstream) turns on the isospeed-efficiency
	// autoscaler: windowed E_s observation driving planned grows and
	// shrinks. Nil (or the zero spec) disables it.
	Autoscale *job.AutoscaleSpec `json:"autoscale,omitempty"`
}

// Normalize fills every defaulted field in place and expands sugar
// (Quick) so that two specs meaning the same run normalize to the same
// canonical bytes. It is idempotent and does not validate beyond what
// defaulting requires; call Validate after.
func (rs *RunSpec) Normalize() error {
	if rs.Version == 0 {
		rs.Version = Version
	}
	rs.Kind = strings.ToLower(strings.TrimSpace(rs.Kind))
	rs.Format = strings.ToLower(strings.TrimSpace(rs.Format))
	if rs.Format == "" {
		rs.Format = "text"
	}
	rs.Engine = strings.ToLower(strings.TrimSpace(rs.Engine))
	if rs.Engine == "" {
		rs.Engine = "live"
	}
	if eng, err := ParseEngine(rs.Engine); err == nil {
		rs.Engine = eng.String() // one spelling per engine: "sym" is "symbolic"
	}
	switch rs.Kind {
	case KindExperiments:
		base := experiments.Default()
		if rs.Quick {
			base = experiments.Quick()
			rs.Quick = false
		}
		if rs.Sizes == nil {
			rs.Sizes = base.Sizes
		}
		if rs.AsymSizes == nil {
			rs.AsymSizes = base.AsymSizes
		}
		if rs.SweepPoints == 0 {
			rs.SweepPoints = base.SweepPoints
		}
		if rs.GETarget == 0 {
			rs.GETarget = base.GETarget
		}
		if rs.MMTarget == 0 {
			rs.MMTarget = base.MMTarget
		}
		if rs.Seed == 0 {
			rs.Seed = base.Seed
		}
	case KindScalescan:
		rs.Workload = normalizeWorkload(rs.Workload)
		if rs.Target == 0 {
			w, err := workload.Get(rs.Workload)
			if err != nil {
				return fmt.Errorf("spec: %w", err)
			}
			rs.Target = w.DefaultTarget()
		}
	case KindFaultscan:
		rs.Workload = normalizeWorkload(rs.Workload)
		if rs.P == 0 {
			rs.P = 8
		}
		if rs.N == 0 {
			rs.N = 400
		}
	case KindJobstream:
		if rs.Stream == nil {
			s := job.DefaultStream()
			rs.Stream = &s
		}
		if rs.Policies == nil {
			rs.Policies = job.Policies()
		}
		if rs.SharedP == 0 {
			rs.SharedP = experiments.JobStreamP
		}
		if rs.Seed == 0 {
			rs.Seed = experiments.Default().Seed
		}
		// A zero fault/admission section means the same run as an absent
		// one; fold it away so both spell the same canonical bytes (and
		// the same cache key).
		if rs.NodeFaults != nil && rs.NodeFaults.IsZero() {
			rs.NodeFaults = nil
		}
		if rs.Admission != nil && rs.Admission.IsZero() {
			rs.Admission = nil
		}
		if rs.NodeFaults != nil && rs.Retry == nil {
			r := job.DefaultRetry()
			rs.Retry = &r
		}
		// Same folding for the elastic sections: a zero membership plan or
		// autoscale spec means the same run as an absent one, so specs
		// without elasticity keep their exact prior canonical bytes.
		if rs.Membership != nil && rs.Membership.IsZero() {
			rs.Membership = nil
		}
		if rs.Autoscale != nil && rs.Autoscale.IsZero() {
			rs.Autoscale = nil
		}
	}
	return nil
}

func normalizeWorkload(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return "ge"
	}
	return name
}

// Validate checks a (conventionally normalized) spec: version and kind
// are known, enumerations parse, per-kind requirements hold, and no
// field foreign to the kind is set — a canonical encoding must not
// carry knobs the run would silently ignore.
func (rs *RunSpec) Validate() error {
	if rs.Version != Version {
		return fmt.Errorf("spec: unsupported version %d (this build speaks version %d)", rs.Version, Version)
	}
	if _, err := ParseEngine(rs.Engine); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	switch rs.Format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("spec: unknown format %q (text, csv or json)", rs.Format)
	}
	switch rs.Kind {
	case KindExperiments:
		if err := rs.rejectForeign(KindExperiments); err != nil {
			return err
		}
		if rs.Experiments == "" {
			return fmt.Errorf("spec: kind experiments needs an experiment selector")
		}
		if _, err := experiments.Resolve(rs.Experiments); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		if err := validateIncreasing("sizes", rs.Sizes, 2); err != nil {
			return err
		}
		if err := validateIncreasing("asymSizes", rs.AsymSizes, 2); err != nil {
			return err
		}
		if rs.GETarget <= 0 || rs.GETarget >= 1 || rs.MMTarget <= 0 || rs.MMTarget >= 1 {
			return fmt.Errorf("spec: targets out of (0,1): GE %g MM %g", rs.GETarget, rs.MMTarget)
		}
		if rs.SweepPoints < 4 {
			return fmt.Errorf("spec: sweepPoints %d < 4", rs.SweepPoints)
		}
		if eng, _ := ParseEngine(rs.Engine); rs.Contended && eng != mpi.EngineDES {
			return fmt.Errorf("spec: contended needs the des engine, which alone queues messages on the wire (engine %q)", rs.Engine)
		}
	case KindScalescan:
		if err := rs.rejectForeign(KindScalescan); err != nil {
			return err
		}
		if _, err := workload.Get(rs.Workload); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		if rs.Target <= 0 || rs.Target >= 1 {
			return fmt.Errorf("spec: target %g out of (0,1)", rs.Target)
		}
		switch {
		case rs.Ladder == nil && len(rs.AsymSizes) == 0:
			return fmt.Errorf("spec: kind scalescan needs a ladder or asymSizes")
		case rs.Ladder != nil && len(rs.AsymSizes) > 0:
			return fmt.Errorf("spec: ladder and asymSizes are mutually exclusive")
		case rs.Ladder != nil:
			if len(rs.Ladder.Ladder) < 2 {
				return fmt.Errorf("spec: ladder needs at least 2 rungs, got %d", len(rs.Ladder.Ladder))
			}
		default:
			if err := validateIncreasing("asymSizes", rs.AsymSizes, 2); err != nil {
				return err
			}
		}
	case KindFaultscan:
		if err := rs.rejectForeign(KindFaultscan); err != nil {
			return err
		}
		if _, err := workload.Get(rs.Workload); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		if rs.P < 2 {
			// Every workload's cluster ladder starts at two ranks.
			return fmt.Errorf("spec: system size p = %d < 2", rs.P)
		}
		if rs.N < 1 {
			return fmt.Errorf("spec: problem size n = %d < 1", rs.N)
		}
		if rs.Faults == nil {
			return fmt.Errorf("spec: kind faultscan needs a fault plan")
		}
		if err := rs.Faults.Validate(); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		if !rs.Recover && rs.CkptInterval != 0 {
			return fmt.Errorf("spec: ckptInterval applies only with recover")
		}
		if rs.CkptInterval < 0 {
			return fmt.Errorf("spec: ckptInterval %d < 0", rs.CkptInterval)
		}
	case KindJobstream:
		if err := rs.rejectForeign(KindJobstream); err != nil {
			return err
		}
		if rs.Stream == nil {
			return fmt.Errorf("spec: kind jobstream needs a stream")
		}
		if err := rs.Stream.Validate(); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		if rs.SharedP < 1 {
			return fmt.Errorf("spec: shared cluster width %d < 1", rs.SharedP)
		}
		for _, t := range rs.Stream.Tenants {
			if t.Width > rs.SharedP {
				return fmt.Errorf("spec: tenant %q wants %d nodes, shared cluster has %d", t.Name, t.Width, rs.SharedP)
			}
		}
		if len(rs.Policies) == 0 {
			return fmt.Errorf("spec: kind jobstream needs at least one policy")
		}
		seen := make(map[string]bool, len(rs.Policies))
		for _, p := range rs.Policies {
			if _, err := job.GetPolicy(p); err != nil {
				return fmt.Errorf("spec: %w", err)
			}
			if seen[p] {
				return fmt.Errorf("spec: duplicate policy %q", p)
			}
			seen[p] = true
		}
		if rs.NodeFaults != nil {
			if err := rs.NodeFaults.Validate(rs.SharedP); err != nil {
				return fmt.Errorf("spec: %w", err)
			}
		}
		if rs.Retry != nil {
			if err := rs.Retry.Validate(); err != nil {
				return fmt.Errorf("spec: %w", err)
			}
		}
		if rs.Admission != nil {
			if err := rs.Admission.Validate(); err != nil {
				return fmt.Errorf("spec: %w", err)
			}
		}
		if rs.Membership != nil {
			if err := rs.Membership.Validate(rs.SharedP); err != nil {
				return fmt.Errorf("spec: %w", err)
			}
		}
		if rs.Autoscale != nil {
			if err := rs.Autoscale.Validate(rs.SharedP); err != nil {
				return fmt.Errorf("spec: %w", err)
			}
		}
	default:
		return fmt.Errorf("spec: unknown kind %q (experiments, scalescan, faultscan or jobstream)", rs.Kind)
	}
	return nil
}

// rejectForeign errors when any field outside kind's section is set.
func (rs *RunSpec) rejectForeign(kind string) error {
	type field struct {
		name string
		set  bool
	}
	experimentsFields := []field{
		{"experiments", rs.Experiments != ""},
		{"quick", rs.Quick},
		{"contended", rs.Contended},
		{"sizes", rs.Sizes != nil},
		{"sweepPoints", rs.SweepPoints != 0},
		{"geTarget", rs.GETarget != 0},
		{"mmTarget", rs.MMTarget != 0},
	}
	scanFields := []field{
		{"target", rs.Target != 0},
		{"ladder", rs.Ladder != nil},
	}
	faultFields := []field{
		{"p", rs.P != 0},
		{"n", rs.N != 0},
		{"faults", rs.Faults != nil},
		{"recover", rs.Recover},
		{"ckptInterval", rs.CkptInterval != 0},
	}
	workloadField := []field{{"workload", rs.Workload != ""}}
	asymField := []field{{"asymSizes", rs.AsymSizes != nil}}
	// Seed is shared by the experiments and jobstream kinds.
	seedField := []field{{"seed", rs.Seed != 0}}
	streamFields := []field{
		{"stream", rs.Stream != nil},
		{"policies", rs.Policies != nil},
		{"sharedP", rs.SharedP != 0},
		{"nodeFaults", rs.NodeFaults != nil},
		{"retry", rs.Retry != nil},
		{"admission", rs.Admission != nil},
		{"membership", rs.Membership != nil},
		{"autoscale", rs.Autoscale != nil},
	}

	var foreign []field
	switch kind {
	case KindExperiments:
		foreign = append(foreign, workloadField...)
		foreign = append(foreign, scanFields...)
		foreign = append(foreign, faultFields...)
		foreign = append(foreign, streamFields...)
	case KindScalescan:
		foreign = append(foreign, experimentsFields...)
		foreign = append(foreign, seedField...)
		foreign = append(foreign, faultFields...)
		foreign = append(foreign, streamFields...)
	case KindFaultscan:
		foreign = append(foreign, experimentsFields...)
		foreign = append(foreign, seedField...)
		foreign = append(foreign, scanFields...)
		foreign = append(foreign, asymField...)
		foreign = append(foreign, streamFields...)
	case KindJobstream:
		foreign = append(foreign, experimentsFields...)
		foreign = append(foreign, workloadField...)
		foreign = append(foreign, scanFields...)
		foreign = append(foreign, faultFields...)
		foreign = append(foreign, asymField...)
	}
	for _, f := range foreign {
		if f.set {
			return fmt.Errorf("spec: field %q does not apply to kind %s", f.name, kind)
		}
	}
	return nil
}

func validateIncreasing(name string, sizes []int, min int) error {
	if len(sizes) < 2 {
		return fmt.Errorf("spec: %s needs at least two rungs, got %d", name, len(sizes))
	}
	prev := min - 1
	for _, p := range sizes {
		if p < min {
			return fmt.Errorf("spec: %s rung %d < %d", name, p, min)
		}
		if p <= prev {
			return fmt.Errorf("spec: %s not strictly increasing at %d", name, p)
		}
		prev = p
	}
	return nil
}

// Canonical returns the stable JSON encoding of the normalized,
// validated spec. Equal runs — however they were spelled — canonicalize
// to equal bytes, which makes the encoding usable as a cache
// signature. The receiver is not modified.
func (rs RunSpec) Canonical() ([]byte, error) {
	if err := rs.Normalize(); err != nil {
		return nil, err
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(rs)
}

// Key returns the spec's content address: hex SHA-256 of Canonical.
func (rs RunSpec) Key() (string, error) {
	data, err := rs.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Decode reads one RunSpec from JSON, rejecting unknown fields (a
// misspelled knob must not silently vanish from a run's identity),
// then normalizes and validates it.
func Decode(r io.Reader) (*RunSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rs RunSpec
	if err := dec.Decode(&rs); err != nil {
		return nil, fmt.Errorf("spec: decoding: %w", err)
	}
	if err := rs.Normalize(); err != nil {
		return nil, err
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	return &rs, nil
}

// SuiteConfig maps a normalized experiments-kind spec onto the
// experiment suite configuration it denotes.
func (rs RunSpec) SuiteConfig() (experiments.Config, error) {
	if rs.Kind != KindExperiments {
		return experiments.Config{}, fmt.Errorf("spec: SuiteConfig on kind %s", rs.Kind)
	}
	cfg := experiments.Default()
	eng, err := ParseEngine(rs.Engine)
	if err != nil {
		return experiments.Config{}, err
	}
	cfg.Engine = eng
	cfg.Contended = rs.Contended
	cfg.Sizes = rs.Sizes
	cfg.AsymSizes = rs.AsymSizes
	cfg.SweepPoints = rs.SweepPoints
	cfg.GETarget = rs.GETarget
	cfg.MMTarget = rs.MMTarget
	cfg.Seed = rs.Seed
	return cfg, nil
}

// ParseEngine maps an engine name ("live", "des", "symbolic"/"sym",
// case insensitive) to the mpi engine. This is the canonical home of
// the parser previously at cli.ParseEngine.
func ParseEngine(name string) (mpi.Engine, error) {
	switch strings.ToLower(name) {
	case "live":
		return mpi.EngineLive, nil
	case "des":
		return mpi.EngineDES, nil
	case "symbolic", "sym":
		return mpi.EngineSymbolic, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (live, des or symbolic)", name)
	}
}

// ParseFormat resolves the mutually exclusive -csv/-json CLI flags to a
// renderer format name ("text" when neither is set). This is the
// canonical home of the resolver previously at cli.Format.
func ParseFormat(csv, json bool) (string, error) {
	switch {
	case csv && json:
		return "", fmt.Errorf("-csv and -json are mutually exclusive")
	case csv:
		return "csv", nil
	case json:
		return "json", nil
	default:
		return "text", nil
	}
}

// ParseWorkload resolves the -workload/-alg CLI flag pair, spellings of
// one selector, to a registered workload name. The flags must agree when
// both are set; "" (neither set) lets Normalize default to ge.
func ParseWorkload(wl, alg string) (string, error) {
	name := strings.ToLower(wl)
	if name == "" {
		name = strings.ToLower(alg)
	} else if alg != "" && !strings.EqualFold(alg, wl) {
		return "", fmt.Errorf("-workload %q and -alg %q disagree (use -workload)", wl, alg)
	}
	if name == "" {
		return "", nil
	}
	if _, err := workload.Get(name); err != nil {
		return "", err
	}
	return name, nil
}

// SunwulfModel returns the default communication cost model every tool
// measures against: the Sunwulf 100 Mb Ethernet calibration. This is
// the canonical home of the constructor previously at cli.SunwulfModel.
func SunwulfModel() (simnet.CostModel, error) {
	return simnet.NewParamModel("sunwulf-100Mb", simnet.Sunwulf100())
}
