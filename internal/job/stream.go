package job

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/numeric"
	"repro/internal/workload"
)

// TenantSpec describes one tenant's contribution to a job stream: a
// fixed number of jobs of one workload/size/width, with seeded random
// inter-arrival gaps. Shape selects the gap distribution: 1 (or 0)
// draws exponential gaps — a Poisson arrival process — while k > 1
// draws Erlang-k (Gamma with integer shape) gaps of the same mean,
// i.e. burst-smoothed arrivals.
type TenantSpec struct {
	Name      string  `json:"name"`
	Workload  string  `json:"workload"`
	N         int     `json:"n"`
	Width     int     `json:"width"`
	Priority  int     `json:"priority,omitempty"`
	Jobs      int     `json:"jobs"`
	MeanGapMS float64 `json:"meanGapMS"`
	Shape     int     `json:"shape,omitempty"`
}

// StreamSpec is a full multi-tenant job stream: a seed plus per-tenant
// mixes. The spec is pure data (it marshals into RunSpecs) and expands
// deterministically: same spec + same seed ⇒ the same []Job, always.
type StreamSpec struct {
	Seed    int64        `json:"seed"`
	Tenants []TenantSpec `json:"tenants"`
}

// Validate reports structural problems with the stream.
func (s StreamSpec) Validate() error {
	if len(s.Tenants) == 0 {
		return fmt.Errorf("job: stream needs at least one tenant")
	}
	seen := make(map[string]bool, len(s.Tenants))
	for i, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("job: tenant %d has empty name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("job: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		if _, ok := workload.Lookup(t.Workload); !ok {
			return fmt.Errorf("job: tenant %q: unknown workload %q", t.Name, t.Workload)
		}
		if t.N < 3 {
			return fmt.Errorf("job: tenant %q: size %d too small", t.Name, t.N)
		}
		if t.Width <= 0 {
			return fmt.Errorf("job: tenant %q: width %d must be positive", t.Name, t.Width)
		}
		if t.Jobs <= 0 {
			return fmt.Errorf("job: tenant %q: job count %d must be positive", t.Name, t.Jobs)
		}
		if !(t.MeanGapMS > 0) || math.IsInf(t.MeanGapMS, 0) {
			// The !(x > 0) form also catches NaN: a poisoned gap must be
			// refused here, not surface as NaN arrival times deep inside
			// Simulate.
			return fmt.Errorf("job: tenant %q: mean gap %g must be positive and finite", t.Name, t.MeanGapMS)
		}
		if t.Shape < 0 {
			return fmt.Errorf("job: tenant %q: negative Erlang shape %d", t.Name, t.Shape)
		}
	}
	return nil
}

// Jobs expands the stream into its deterministic job list, merged
// across tenants by (arrival time, tenant name, per-tenant index) and
// assigned dense IDs in that order.
func (s StreamSpec) Jobs() ([]Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var jobs []Job
	type key struct {
		tenant string
		idx    int
	}
	order := make(map[int]key)
	for _, t := range s.Tenants {
		// Per-tenant generator: decorrelated from the shared seed by the
		// tenant name so adding a tenant never perturbs the others.
		g := newRNG(s.Seed, t.Name)
		at := 0.0
		for i := 0; i < t.Jobs; i++ {
			at += gamma(&g, t.MeanGapMS, t.Shape)
			jobs = append(jobs, Job{
				Tenant: t.Name, Workload: t.Workload,
				N: t.N, Width: t.Width, Priority: t.Priority,
				ArrivalMS: at,
			})
			order[len(jobs)-1] = key{t.Name, i}
		}
	}
	idxs := make([]int, len(jobs))
	for i := range idxs {
		idxs[i] = i
	}
	sort.SliceStable(idxs, func(a, b int) bool {
		ja, jb := jobs[idxs[a]], jobs[idxs[b]]
		if ja.ArrivalMS != jb.ArrivalMS {
			return ja.ArrivalMS < jb.ArrivalMS
		}
		ka, kb := order[idxs[a]], order[idxs[b]]
		if ka.tenant != kb.tenant {
			return ka.tenant < kb.tenant
		}
		return ka.idx < kb.idx
	})
	out := make([]Job, len(jobs))
	for i, idx := range idxs {
		out[i] = jobs[idx]
		out[i].ID = i
	}
	return out, nil
}

// DefaultStream is the canonical three-tenant scenario the jobstream
// experiment and RunSpec defaults use: a stencil-heavy tenant, an
// all-reduce-heavy tenant and a bursty matrix tenant sharing one
// cluster.
func DefaultStream() StreamSpec {
	return StreamSpec{
		Seed: 42,
		Tenants: []TenantSpec{
			{Name: "atlas", Workload: "jacobi", N: 96, Width: 4, Priority: 2, Jobs: 4, MeanGapMS: 400, Shape: 1},
			{Name: "borealis", Workload: "cg", N: 64, Width: 3, Priority: 1, Jobs: 4, MeanGapMS: 500, Shape: 1},
			{Name: "cygnus", Workload: "mm", N: 48, Width: 6, Priority: 3, Jobs: 3, MeanGapMS: 900, Shape: 3},
		},
	}
}

// --- Seeded random gaps --------------------------------------------------

// newRNG derives an independent splitmix64 stream from the shared seed
// and the tenant name via FNV-1a mixing.
func newRNG(seed int64, tenant string) numeric.SplitMix {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range []byte(tenant) {
		h ^= uint64(b)
		h *= prime64
	}
	return numeric.SplitMix(uint64(seed) ^ h)
}

// gamma draws an Erlang-k gap with the given mean: the sum of k
// exponentials of mean mean/k. Shape 0 or 1 is plain exponential.
func gamma(g *numeric.SplitMix, mean float64, shape int) float64 {
	if shape <= 1 {
		return g.Exp(mean)
	}
	var sum float64
	for i := 0; i < shape; i++ {
		sum += g.Exp(mean / float64(shape))
	}
	return sum
}
