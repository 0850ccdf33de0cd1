package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/workload"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit, better string }

// traceLayers are the span layers self time is reported for: the
// benchmark's own operation roots, the HTTP client round trip, the serve
// handler, the spec executor, experiment tasks, job simulations, workload
// runs and the runner's disk cache.
var traceLayers = []string{"op", "http", "serve", "spec", "experiments", "job", "workload", "runner"}

// perLayer lists every per-layer metric in report order.
func perLayer() []layerMetric {
	var out []layerMetric
	add := func(name, unit, better string) { out = append(out, layerMetric{name, unit, better}) }
	for _, id := range experiments.IDs() {
		add("experiments.ms."+id, "ms", "lower")
	}
	add("experiments.cache_hits", "count", "higher")
	add("experiments.cache_misses", "count", "lower")
	for _, w := range workload.Names() {
		for _, eng := range engines {
			add("workload.rung_ms."+w+"."+eng, "ms", "lower")
		}
	}
	add("workload.real_ms.ge", "ms", "lower")
	for _, eng := range engines {
		add("mpi.host_ns_per_msg."+eng, "ns", "lower")
	}
	for _, pol := range job.Policies() {
		add("job.simulate_ms."+pol+".plain", "ms", "lower")
		add("job.simulate_ms."+pol+".faulted", "ms", "lower")
	}
	add("job.pick_calls", "count", "lower")
	add("job.pick_ms", "ms", "lower")
	add("job.leases", "count", "higher")
	add("job.placements_per_call", "count", "lower")
	add("job.placements_shared", "count", "lower")
	add("job.speed_keys_shared", "count", "lower")
	add("job.memo_reuse", "ratio", "higher")
	add("job.replay_ms", "ms", "lower")
	add("job.sched_ms", "ms", "lower")
	add("job.recoveries", "count", "lower")
	add("job.retries", "count", "lower")
	add("job.rejected", "count", "lower")
	add("job.shed", "count", "lower")
	add("spec.decode_us_p50", "us", "lower")
	add("spec.prepare_us_p50", "us", "lower")
	add("runner.hit_us_p50", "us", "lower")
	add("serve.overhead_us_p50", "us", "lower")
	add("runner.mem_hits", "count", "higher")
	add("runner.mem_misses", "count", "lower")
	add("runner.disk_hits", "count", "higher")
	add("runner.disk_misses", "count", "lower")
	add("runner.disk_entries", "count", "higher")
	add("runner.disk_bytes", "bytes", "lower")
	add("runner.evicted", "count", "lower")
	add("runner.disk_open_ms", "ms", "lower")
	for _, m := range cpuModules {
		add("cpu_share."+m, "share", "lower")
	}
	for _, l := range traceLayers {
		add("self_ms."+l, "ms", "lower")
	}
	add("trace.overhead_s", "s", "lower")
	add("trace.overhead_share", "share", "lower")
	add("trace.spans", "count", "higher")
	return out
}

// probeEnv carries a traced measurement into the layer probes, which add
// their metrics to vals.
type probeEnv struct {
	*env
	vals map[string]float64
}

// probes run after the traced measurement, each under the same tracer.
var probes = []func(p *probeEnv) error{probeExperiments, probeWorkloads, probeJobs, probeServe}

// probeExperiments runs the quick suite once serially (one worker) and
// times every experiment through runner.Hooks.
func probeExperiments(p *probeEnv) error {
	op := p.tr.newOp()
	root := p.tr.begin(0, op, 0, "op", "probe experiments serial pass")
	defer p.tr.end(root)
	h := newExpHooks(p.env)
	ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 1, Hooks: h.hooks()})
	if err != nil {
		return err
	}
	h.op = op
	h.parent = p.tr.begin(root, op, 0, "spec", "Executor.Run serial")
	h.record.Store(true)
	var out bytes.Buffer
	err = ex.Run(context.Background(), suiteSpec(), &out)
	p.tr.end(h.parent)
	if err != nil {
		return fmt.Errorf("serial suite pass: %w", err)
	}
	p.outcome(checkDigest("suite-quick", out.Bytes()))
	for id, d := range h.times {
		p.vals["experiments.ms."+id] = ms(d)
	}
	st := ex.CacheStats()
	p.vals["experiments.cache_hits"] = float64(st.Hits)
	p.vals["experiments.cache_misses"] = float64(st.Misses)
	return nil
}

// Workload probe sizes: every registered workload at p = 8, N = 96 in
// symbolic mode, and GE with real arithmetic at N = 192.
const (
	probeP     = 8
	probeN     = 96
	probeRealN = 192
	probeReps  = 5
)

// probeWorkloads times one Workload.Run per registered workload and
// engine (median of probeReps) and checks the engines agree on virtual
// time.
func probeWorkloads(p *probeEnv) error {
	op := p.tr.newOp()
	root := p.tr.begin(0, op, 0, "op", "probe workload rungs")
	defer p.tr.end(root)
	model, err := spec.SunwulfModel()
	if err != nil {
		return err
	}
	timed := func(w workload.Workload, cl *cluster.Cluster, eng string, ws workload.Spec) (float64, workload.Outcome, error) {
		engine, err := spec.ParseEngine(eng)
		if err != nil {
			return 0, workload.Outcome{}, err
		}
		var times []float64
		var res workload.Outcome
		for r := 0; r < probeReps; r++ {
			id := p.tr.begin(root, op, 0, "workload", w.Name()+" "+eng)
			start := time.Now()
			res, err = w.Run(context.Background(), cl, model, mpi.Options{Engine: engine}, ws)
			times = append(times, ms(time.Since(start)))
			p.tr.end(id)
			if err != nil {
				return 0, res, fmt.Errorf("%s on %s: %w", w.Name(), eng, err)
			}
		}
		return median(times), res, nil
	}
	hostMS := map[string]float64{}
	msgs := map[string]int64{}
	for _, w := range workload.All() {
		cl, err := w.ClusterLadder(probeP)
		if err != nil {
			return err
		}
		var virtual []float64
		for _, eng := range engines {
			t, res, err := timed(w, cl, eng, workload.Spec{N: probeN, Seed: defaultSeed, Symbolic: true})
			if err != nil {
				return err
			}
			p.vals["workload.rung_ms."+w.Name()+"."+eng] = t
			hostMS[eng] += t
			msgs[eng] += res.Stats.Messages
			virtual = append(virtual, res.Stats.TimeMS)
		}
		if virtual[0] != virtual[1] || virtual[0] != virtual[2] {
			p.outcome(fmt.Errorf("%s: engines disagree on virtual time %v", w.Name(), virtual))
		} else {
			p.outcome(nil)
		}
	}
	for _, eng := range engines {
		p.vals["mpi.host_ns_per_msg."+eng] = hostMS[eng] * 1e6 / float64(msgs[eng])
	}
	ge := workload.MustGet("ge")
	cl, err := ge.ClusterLadder(probeP)
	if err != nil {
		return err
	}
	t, _, err := timed(ge, cl, "live", workload.Spec{N: probeRealN, Seed: defaultSeed})
	if err != nil {
		return err
	}
	p.vals["workload.real_ms.ge"] = t
	return nil
}

// timedPolicy wraps a scheduling policy to count and time Pick.
type timedPolicy struct {
	job.Policy
	calls int
	busy  time.Duration
}

func (t *timedPolicy) Pick(queue []*job.Job, alloc *cluster.Allocator, est job.Estimator, nowMS float64) (int, []int, bool) {
	start := time.Now()
	idx, ranks, ok := t.Policy.Pick(queue, alloc, est, nowMS)
	t.busy += time.Since(start)
	t.calls++
	return idx, ranks, ok
}

// placement is one distinct inner run: a workload at a size on a leased
// rank list.
type placement struct {
	workload string
	n        int
	ranks    string
}

// probeJobs calls job.Simulate directly with the inputs the executor
// builds for the jobstream-1k spec, plain and faulted under every policy,
// and measures what the inner-run memo sees.
func probeJobs(p *probeEnv) error {
	op := p.tr.newOp()
	root := p.tr.begin(0, op, 0, "op", "probe job simulate")
	defer p.tr.end(root)
	rs := jobstreamSpec(p.seed, "des")
	if err := rs.Normalize(); err != nil {
		return err
	}
	jobs, err := rs.Stream.Jobs()
	if err != nil {
		return err
	}
	cl, err := cluster.MMConfig(rs.SharedP)
	if err != nil {
		return err
	}
	model, err := spec.SunwulfModel()
	if err != nil {
		return err
	}
	engine, err := spec.ParseEngine(rs.Engine)
	if err != nil {
		return err
	}
	plain := job.Options{
		MPI:   mpi.Options{Engine: engine},
		Alloc: cluster.AllocatorOptions{AcquireMS: experiments.JobStreamAcquireMS, ReleaseMS: experiments.JobStreamReleaseMS},
		Seed:  rs.Seed,
	}
	faulted := plain
	faulted.Health, faulted.Retry, faulted.Admission = *rs.NodeFaults, *rs.Retry, *rs.Admission

	speeds := cl.Speeds()
	shared := map[placement][]int{}
	speedKeys := map[placement]bool{}
	var perCall [][]placement
	var simulated time.Duration
	var pickCalls, leases, recoveries, retries, rejected, shed int
	var pickBusy time.Duration
	for _, name := range job.Policies() {
		pol, err := job.GetPolicy(name)
		if err != nil {
			return err
		}
		for _, mode := range []string{"plain", "faulted"} {
			opts := plain
			if mode == "faulted" {
				opts = faulted
			}
			tp := &timedPolicy{Policy: pol}
			id := p.tr.begin(root, op, 0, "job", "Simulate "+name+" "+mode)
			start := time.Now()
			res, err := job.Simulate(context.Background(), cl, model, jobs, tp, opts)
			d := time.Since(start)
			p.tr.end(id)
			if err != nil {
				return fmt.Errorf("simulate %s %s: %w", name, mode, err)
			}
			if n := res.Completed + res.Rejected + res.Shed + res.Failed + res.Starved; n != len(jobs) {
				p.outcome(fmt.Errorf("simulate %s %s: %d of %d jobs reached a terminal state", name, mode, n, len(jobs)))
			} else {
				p.outcome(nil)
			}
			p.vals["job.simulate_ms."+name+"."+mode] = ms(d)
			simulated += d
			pickCalls += tp.calls
			pickBusy += tp.busy
			rejected += res.Rejected
			shed += res.Shed
			distinct := map[placement]bool{}
			for _, jr := range res.Jobs {
				recoveries += jr.Recoveries
				retries += jr.Retries
				if jr.Ranks == nil {
					continue
				}
				leases++
				key := placement{jr.Workload, jr.N, fmt.Sprint(jr.Ranks)}
				distinct[key] = true
				shared[key] = jr.Ranks
				sp := make([]float64, len(jr.Ranks))
				for i, r := range jr.Ranks {
					sp[i] = speeds[r]
				}
				speedKeys[placement{jr.Workload, jr.N, fmt.Sprint(sp)}] = true
			}
			keys := make([]placement, 0, len(distinct))
			for k := range distinct {
				keys = append(keys, k)
			}
			perCall = append(perCall, keys)
		}
	}

	// Replay every distinct placement once through Workload.Run on the
	// leased subset; a call's replay time is the sum over its placements.
	keys := make([]placement, 0, len(shared))
	for k := range shared {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.n != b.n {
			return a.n < b.n
		}
		return a.ranks < b.ranks
	})
	replay := map[placement]time.Duration{}
	for _, k := range keys {
		w, err := workload.Get(k.workload)
		if err != nil {
			return err
		}
		sub, err := cl.Subset("lease", shared[k]...)
		if err != nil {
			return err
		}
		id := p.tr.begin(root, op, 0, "workload", "replay "+k.workload)
		start := time.Now()
		_, err = w.Run(context.Background(), sub, model, plain.MPI, workload.Spec{N: k.n, Seed: rs.Seed, Symbolic: true})
		replay[k] = time.Since(start)
		p.tr.end(id)
		if err != nil {
			return fmt.Errorf("replaying %s n=%d on %s: %w", k.workload, k.n, k.ranks, err)
		}
	}
	var replayed time.Duration
	placements := 0
	for _, call := range perCall {
		placements += len(call)
		for _, k := range call {
			replayed += replay[k]
		}
	}
	p.vals["job.pick_calls"] = float64(pickCalls)
	p.vals["job.pick_ms"] = ms(pickBusy)
	p.vals["job.leases"] = float64(leases)
	p.vals["job.placements_per_call"] = float64(placements)
	p.vals["job.placements_shared"] = float64(len(shared))
	p.vals["job.speed_keys_shared"] = float64(len(speedKeys))
	p.vals["job.memo_reuse"] = float64(leases) / float64(max(placements, 1))
	p.vals["job.replay_ms"] = ms(replayed)
	p.vals["job.sched_ms"] = ms(simulated - replayed)
	p.vals["job.recoveries"] = float64(recoveries)
	p.vals["job.retries"] = float64(retries)
	p.vals["job.rejected"] = float64(rejected)
	p.vals["job.shed"] = float64(shed)
	return nil
}

// Serve probe sizes: the replayed prefix of the serve-mix sequence and the
// number of warm requests timed in process and over HTTP.
const (
	serveProbeRequests = 480
	serveProbeWarm     = 200
)

// probeServe replays a prefix of the seed's serve-mix sequence in process:
// spec decoding and preparation per request, the executor's memory and
// disk caches on a capped directory across a restart, warm-hit latency in
// process and over HTTP.
func probeServe(p *probeEnv) error {
	op := p.tr.newOp()
	root := p.tr.begin(0, op, 0, "op", "probe serve/spec/runner")
	defer p.tr.end(root)
	seq, err := sequence(p.seed, serveProbeRequests)
	if err != nil {
		return err
	}
	var decode, prepare []float64
	specs := make([]spec.RunSpec, len(seq))
	var oneOffs [][]byte
	var warm []spec.RunSpec
	for i, r := range seq {
		start := time.Now()
		rs, err := spec.Decode(bytes.NewReader(r.body))
		decode = append(decode, float64(time.Since(start))/1e3)
		if err != nil {
			return err
		}
		specs[i] = *rs
		var raw spec.RunSpec
		if err := json.Unmarshal(r.body, &raw); err != nil {
			return err
		}
		start = time.Now()
		err = raw.Normalize()
		if err == nil {
			err = raw.Validate()
		}
		if err == nil {
			_, err = raw.Key()
		}
		prepare = append(prepare, float64(time.Since(start))/1e3)
		if err != nil {
			return err
		}
		switch r.class {
		case classOneOff:
			oneOffs = append(oneOffs, r.body)
		case classHot:
			warm = append(warm, *rs)
		}
	}
	p.vals["spec.decode_us_p50"] = median(decode)
	p.vals["spec.prepare_us_p50"] = median(prepare)

	dir := filepath.Join(p.dir, "probe-cache")
	ex, err := serveExecutor(dir)
	if err != nil {
		return err
	}
	run := func(ex *spec.Executor, rs spec.RunSpec, name string) (time.Duration, error) {
		_, d, err := runSpec(p.env, ex, rs, root, op, 0, name)
		return d, err
	}
	for _, rs := range specs {
		if _, err := run(ex, rs, "Executor.Run replay"); err != nil {
			return err
		}
	}
	var opens []float64
	for k := 0; k < 5; k++ {
		id := p.tr.begin(root, op, 0, "runner", "OpenDiskCache")
		start := time.Now()
		d, err := runner.OpenDiskCache(dir)
		if err == nil {
			err = d.SetMaxBytes(serveCacheBytes)
		}
		opens = append(opens, ms(time.Since(start)))
		p.tr.end(id)
		if err != nil {
			return err
		}
	}
	p.vals["runner.disk_open_ms"] = median(opens)
	ex2, err := serveExecutor(dir)
	if err != nil {
		return err
	}
	for _, body := range restartSample(p.seed, oneOffs, restartWindow, restartReplays) {
		rs, err := spec.Decode(bytes.NewReader(body))
		if err != nil {
			return err
		}
		if _, err := run(ex2, *rs, "Executor.Run restart"); err != nil {
			return err
		}
	}
	st := ex.CacheStats().Add(ex2.CacheStats())
	disk, err := runner.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	entries, size, err := disk.Info()
	if err != nil {
		return err
	}
	p.vals["runner.mem_hits"] = float64(st.Hits)
	p.vals["runner.mem_misses"] = float64(st.Misses)
	p.vals["runner.disk_hits"] = float64(st.DiskHits)
	p.vals["runner.disk_misses"] = float64(st.DiskMisses)
	p.vals["runner.disk_entries"] = float64(entries)
	p.vals["runner.disk_bytes"] = float64(size)
	// Every disk miss stored one entry into an initially empty directory.
	p.vals["runner.evicted"] = float64(st.DiskMisses - int64(entries))

	if len(warm) == 0 {
		return fmt.Errorf("serve probe sequence has no hot request")
	}
	var hits []float64
	for k := 0; k < serveProbeWarm; k++ {
		d, err := run(ex, warm[k%len(warm)], "Executor.Run warm")
		if err != nil {
			return err
		}
		hits = append(hits, float64(d)/1e3)
	}
	hitUS := median(hits)
	p.vals["runner.hit_us_p50"] = hitUS

	srv, err := startServer(p.env, ex)
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var trips []float64
	for k := 0; k < serveProbeWarm; k++ {
		body, err := json.Marshal(warm[k%len(warm)])
		if err != nil {
			return err
		}
		status, _, d, err := post(p.env, client, srv.url, body, op, 0)
		if err == nil && status != 200 {
			err = fmt.Errorf("warm POST /run: status %d", status)
		}
		if err != nil {
			_ = srv.stop() // the request's error is the one to report
			return err
		}
		trips = append(trips, float64(d)/1e3)
	}
	if err := srv.stop(); err != nil {
		return err
	}
	p.vals["serve.overhead_us_p50"] = median(trips) - hitUS
	return nil
}
