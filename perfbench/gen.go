package main

import (
	"encoding/json"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/spec"
	"repro/internal/workload"
)

// rng is a splitmix64 stream. Every input the benchmark hands the program
// derives from one of these, seeded by the benchmark seed and a stream
// name, so the same --seed always yields the same specs and request
// sequence and no two input families share draws.
type rng struct{ state uint64 }

func newRNG(seed int64, stream string) *rng {
	h := uint64(14695981039346656037)
	for _, b := range []byte(stream) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &rng{state: uint64(seed) ^ h}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform double in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// seed returns a positive int64 suitable as a program-side seed.
func (r *rng) seed() int64 { return int64(r.next()>>2) + 1 }

// suiteSpec is the suite-quick operation: the quick reproduction users
// run. It takes no seed: its bytes are checked against a committed digest
// on every run.
func suiteSpec() spec.RunSpec {
	return spec.RunSpec{Kind: spec.KindExperiments, Experiments: "all", Quick: true}
}

// jobstreamSpec is the jobstream-1k operation for a benchmark seed: 1000
// jobs from three tenants on the shared 16-node cluster under every
// policy, with 40 seeded node outages, default retry and admission
// control. The arrival stream and the outage schedule both derive from
// the seed.
func jobstreamSpec(seed int64, engine string) spec.RunSpec {
	r := newRNG(seed, "jobstream-1k")
	stream := job.StreamSpec{Seed: r.seed(), Tenants: []job.TenantSpec{
		{Name: "atlas", Workload: "jacobi", N: 96, Width: 4, Priority: 2, Jobs: 360, MeanGapMS: 67, Shape: 1},
		{Name: "borealis", Workload: "cg", N: 64, Width: 3, Priority: 1, Jobs: 360, MeanGapMS: 83, Shape: 1},
		{Name: "cygnus", Workload: "mm", N: 48, Width: 6, Priority: 3, Jobs: 280, MeanGapMS: 150, Shape: 3},
	}}
	return spec.RunSpec{
		Kind:       spec.KindJobstream,
		Engine:     engine,
		Stream:     &stream,
		SharedP:    16,
		NodeFaults: &cluster.HealthSpec{Seed: r.seed(), Failures: 40, MeanUpMS: 500, MeanDownMS: 600},
		Admission:  &job.AdmissionSpec{MaxQueue: 8, MaxWaitMS: 5000},
	}
}

// streamJobs is the number of jobs jobstreamSpec submits.
const streamJobs = 1000

// Request classes of the serve-mix sequence.
const (
	classHot      = "hot"      // cheap spec from the hot set, cached after first use
	classUncached = "uncached" // hot-set spec the executor never caches
	classOneOff   = "oneoff"   // spec seen once in the sequence
)

// request is one serve-mix request: the RunSpec JSON body POSTed to /run.
type request struct {
	body  []byte
	class string
}

// hotSpecs is the serve-mix hot set: cheap specs covering all four kinds.
// The scalescan asymptotic ladder is computed in closed form on every
// request and never cached.
func hotSpecs() ([]request, error) {
	fs, err := faults.Intensity(1, 0.5)
	if err != nil {
		return nil, err
	}
	specs := []struct {
		rs    spec.RunSpec
		class string
	}{
		{spec.RunSpec{Kind: spec.KindExperiments, Experiments: "table1", Quick: true}, classHot},
		{spec.RunSpec{Kind: spec.KindExperiments, Experiments: "table1", Quick: true, Format: "csv"}, classHot},
		{spec.RunSpec{Kind: spec.KindExperiments, Experiments: "table6", Quick: true, Format: "json"}, classHot},
		{spec.RunSpec{Kind: spec.KindExperiments, Experiments: "scaling-models", Quick: true}, classHot},
		{spec.RunSpec{Kind: spec.KindJobstream}, classHot},
		{spec.RunSpec{Kind: spec.KindJobstream, Format: "json"}, classHot},
		{spec.RunSpec{Kind: spec.KindFaultscan, Faults: &fs}, classHot},
		{spec.RunSpec{Kind: spec.KindScalescan, AsymSizes: []int{100, 1000}}, classUncached},
	}
	out := make([]request, len(specs))
	for i, s := range specs {
		body, err := json.Marshal(s.rs)
		if err != nil {
			return nil, err
		}
		out[i] = request{body: body, class: s.class}
	}
	return out, nil
}

// hotShare is the fraction of serve-mix requests drawn from the hot set.
const hotShare = 0.75

var engines = []string{"live", "des", "symbolic"}

// mixGen generates the serve-mix request sequence for one seed. Which
// requests are hot, which hot spec each one is, and every one-off's fault
// or stream seed are seeded draws. The one-offs rotate through a fixed
// cycle of kinds, workloads and engines, so every seed sees the same cost
// mix in a different order.
type mixGen struct {
	r       *rng
	hot     []request
	loads   []string
	oneOffs int
}

func newMix(seed int64) (*mixGen, error) {
	hot, err := hotSpecs()
	if err != nil {
		return nil, err
	}
	return &mixGen{r: newRNG(seed, "serve-mix"), hot: hot, loads: workload.Names()}, nil
}

func (g *mixGen) next() (request, error) {
	if g.r.float() < hotShare {
		return g.hot[g.r.intn(len(g.hot))], nil
	}
	c := g.oneOffs
	g.oneOffs++
	var rs spec.RunSpec
	if c%2 == 0 {
		// Faultscan across every workload under every engine, each with a
		// fresh fault seed.
		k := c / 2
		fs, err := faults.Intensity(g.r.seed(), 0.5)
		if err != nil {
			return request{}, err
		}
		rs = spec.RunSpec{
			Kind:     spec.KindFaultscan,
			Workload: g.loads[k%len(g.loads)],
			Engine:   engines[(k/len(g.loads))%len(engines)],
			Faults:   &fs,
		}
	} else {
		// The default three-tenant stream (11 jobs) with a fresh stream seed.
		stream := job.DefaultStream()
		stream.Seed = g.r.seed()
		rs = spec.RunSpec{Kind: spec.KindJobstream, Engine: engines[(c/2)%len(engines)], Stream: &stream}
	}
	body, err := json.Marshal(rs)
	if err != nil {
		return request{}, err
	}
	return request{body: body, class: classOneOff}, nil
}

// sequence returns the first n requests of the seed's serve-mix sequence.
func sequence(seed int64, n int) ([]request, error) {
	g, err := newMix(seed)
	if err != nil {
		return nil, err
	}
	out := make([]request, n)
	for i := range out {
		if out[i], err = g.next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// restartSample picks, seeded, k of the last `window` one-off bodies served
// in the main phase: the requests the restart phase replays from disk.
// Recent one-offs are the ones the LRU-capped directory still holds.
func restartSample(seed int64, oneOffs [][]byte, window, k int) [][]byte {
	if len(oneOffs) > window {
		oneOffs = oneOffs[len(oneOffs)-window:]
	}
	idx := make([]int, len(oneOffs))
	for i := range idx {
		idx[i] = i
	}
	r := newRNG(seed, "restart")
	for i := len(idx) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	k = min(k, len(idx))
	out := make([][]byte, k)
	for i := 0; i < k; i++ {
		out[i] = oneOffs[idx[i]]
	}
	return out
}
