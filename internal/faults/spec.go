package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
)

// Spec is the size-independent JSON description of a fault plan, suitable
// for sweeping a whole cluster ladder: stragglers are named by fraction,
// not by rank, and are picked deterministically from the seed when the
// spec is instantiated for a concrete system size.
//
//	{
//	  "seed": 1,
//	  "stragglerFrac": 0.25, "stragglerFactor": 2.0,
//	  "latencyFactor": 1.5, "bandwidthFactor": 0.7,
//	  "dropProb": 0.01, "retryTimeoutMS": 1.0, "maxRetries": 8,
//	  "crashes": [{"rank": 1, "atMS": 250}]
//	}
type Spec struct {
	Seed            int64       `json:"seed"`
	StragglerFrac   float64     `json:"stragglerFrac"`
	StragglerFactor float64     `json:"stragglerFactor"`
	LatencyFactor   float64     `json:"latencyFactor"`
	BandwidthFactor float64     `json:"bandwidthFactor"`
	DropProb        float64     `json:"dropProb"`
	RetryTimeoutMS  float64     `json:"retryTimeoutMS"`
	MaxRetries      int         `json:"maxRetries"`
	Crashes         []CrashSpec `json:"crashes,omitempty"`
}

// CrashSpec is one declarative crash.
type CrashSpec struct {
	Rank int     `json:"rank"`
	AtMS float64 `json:"atMS"`
}

// Validate reports structural problems independent of system size.
func (s Spec) Validate() error {
	if s.StragglerFrac < 0 || s.StragglerFrac > 1 || isBad(s.StragglerFrac) {
		return fmt.Errorf("faults: straggler fraction %g out of [0,1]", s.StragglerFrac)
	}
	if s.StragglerFrac > 0 && s.StragglerFactor != 0 && (s.StragglerFactor < 1 || isBad(s.StragglerFactor)) {
		return fmt.Errorf("faults: straggler factor %g must be >= 1 and finite", s.StragglerFactor)
	}
	if s.LatencyFactor != 0 && (s.LatencyFactor < 1 || isBad(s.LatencyFactor)) {
		return fmt.Errorf("faults: latency factor %g must be >= 1 and finite", s.LatencyFactor)
	}
	if s.BandwidthFactor != 0 && (s.BandwidthFactor <= 0 || s.BandwidthFactor > 1 || isBad(s.BandwidthFactor)) {
		return fmt.Errorf("faults: bandwidth factor %g must be in (0,1]", s.BandwidthFactor)
	}
	if s.DropProb < 0 || s.DropProb > MaxDropProb || isBad(s.DropProb) {
		return fmt.Errorf("faults: drop probability %g out of [0,%g]", s.DropProb, MaxDropProb)
	}
	if s.RetryTimeoutMS < 0 || isBad(s.RetryTimeoutMS) {
		return fmt.Errorf("faults: retry timeout %g must be non-negative and finite", s.RetryTimeoutMS)
	}
	if s.MaxRetries < 0 {
		return fmt.Errorf("faults: max retries %d must be non-negative", s.MaxRetries)
	}
	lastAt := make(map[int]float64, len(s.Crashes))
	seenRank := make(map[int]bool, len(s.Crashes))
	for _, c := range s.Crashes {
		if c.Rank < 0 {
			return fmt.Errorf("faults: crash rank %d must be non-negative", c.Rank)
		}
		if c.AtMS < 0 || isBad(c.AtMS) {
			return fmt.Errorf("faults: crash rank %d time %g must be non-negative and finite", c.Rank, c.AtMS)
		}
		// A rank may be listed more than once only with strictly
		// increasing times (later entries are unreachable — the rank is
		// already dead — and Instantiate drops them).
		if seenRank[c.Rank] {
			if c.AtMS == lastAt[c.Rank] {
				return fmt.Errorf("faults: duplicate crash entry for rank %d at %g ms", c.Rank, c.AtMS)
			}
			if c.AtMS < lastAt[c.Rank] {
				return fmt.Errorf("faults: crashes for rank %d not in increasing time order (%g ms listed after %g ms)",
					c.Rank, c.AtMS, lastAt[c.Rank])
			}
		}
		seenRank[c.Rank] = true
		lastAt[c.Rank] = c.AtMS
	}
	return nil
}

// Instantiate builds the concrete plan for a p-rank system. Straggler
// ranks are chosen by a seeded shuffle, so the same spec and seed always
// afflict the same ranks; crashes whose rank is outside [0,p) are
// dropped (a ladder sweep keeps one declarative plan across sizes), and
// only the first (earliest) crash per rank survives into the plan.
func (s Spec) Instantiate(p int) (Plan, error) {
	if p <= 0 {
		return Plan{}, fmt.Errorf("faults: Instantiate needs p > 0, got %d", p)
	}
	if err := s.Validate(); err != nil {
		return Plan{}, err
	}
	plan := Plan{
		Seed:            s.Seed,
		LatencyFactor:   s.LatencyFactor,
		BandwidthFactor: s.BandwidthFactor,
		DropProb:        s.DropProb,
		RetryTimeoutMS:  s.RetryTimeoutMS,
		MaxRetries:      s.MaxRetries,
	}
	factor := s.StragglerFactor
	if factor == 0 {
		factor = 1
	}
	if k := int(math.Round(s.StragglerFrac * float64(p))); k > 0 && factor > 1 {
		rng := rand.New(rand.NewSource(s.Seed ^ 0x5DEECE66D))
		ranks := rng.Perm(p)[:k]
		sort.Ints(ranks)
		for _, r := range ranks {
			plan.Stragglers = append(plan.Stragglers, Straggler{Rank: r, Factor: factor})
		}
	}
	crashed := make(map[int]bool, len(s.Crashes))
	for _, c := range s.Crashes {
		// Keep the first crash per rank: Validate ordered same-rank
		// entries by increasing time, so the first is the one that
		// manifests — the rank is dead before any later entry.
		if c.Rank < p && !crashed[c.Rank] {
			plan.Crashes = append(plan.Crashes, Crash{Rank: c.Rank, AtMS: c.AtMS})
			crashed[c.Rank] = true
		}
	}
	if err := plan.Validate(p); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// Intensity builds a one-knob spec for sweep experiments: x = 0 is fault
// free, x = 1 is severe. A quarter of the nodes straggle by 1+2x, latency
// inflates by 1+x, bandwidth drops to 1/(1+x), and 5x% of transmissions
// are lost.
func Intensity(seed int64, x float64) (Spec, error) {
	if x < 0 || x > 1 || isBad(x) {
		return Spec{}, fmt.Errorf("faults: intensity %g out of [0,1]", x)
	}
	if x == 0 {
		return Spec{Seed: seed}, nil
	}
	return Spec{
		Seed:            seed,
		StragglerFrac:   0.25,
		StragglerFactor: 1 + 2*x,
		LatencyFactor:   1 + x,
		BandwidthFactor: 1 / (1 + x),
		DropProb:        0.05 * x,
	}, nil
}

// ParseSpec decodes a JSON fault spec and validates it.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("faults: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and decodes a fault-spec file.
func LoadSpec(path string) (Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return ParseSpec(raw)
}

// ExampleSpec is a template for cmd/faultscan -example.
const ExampleSpec = `{
  "seed": 1,
  "stragglerFrac": 0.25,
  "stragglerFactor": 2.0,
  "latencyFactor": 1.5,
  "bandwidthFactor": 0.7,
  "dropProb": 0.01,
  "retryTimeoutMS": 1.0,
  "maxRetries": 8,
  "crashes": []
}`
