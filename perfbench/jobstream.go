package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/job"
	"repro/internal/spec"
)

// measureJobstream is jobstream-1k: each operation runs the seed's
// 1000-job stream spec on the DES engine through a fresh executor whose
// only cache traffic is that one miss. After each operation the spec is
// served again from memory and, through fresh executors on the same
// directory, from disk. Outside the timed phase the symbolic engine must
// render the same bytes, and at the default seed the committed digest must
// match.
func measureJobstream(e *env) error {
	rs := jobstreamSpec(e.seed, "des")
	body, err := json.Marshal(rs)
	if err != nil {
		return err
	}
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		if _, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 2, CacheDir: dir}); err != nil {
			return err
		}
		dec, err := spec.Decode(bytes.NewReader(body))
		if err != nil {
			return err
		}
		if _, err := dec.Stream.Jobs(); err != nil {
			return err
		}
		if _, err := dec.NodeFaults.Instantiate(dec.SharedP); err != nil {
			return err
		}
		e.setup = append(e.setup, time.Since(start).Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	units := float64(streamJobs * 2 * len(job.Policies()))

	outs := &outputs{e: e, checkFirst: func(out []byte) error {
		if e.seed != defaultSeed {
			return nil // digests are committed for the default seed only
		}
		return checkDigest("jobstream-1k", out)
	}}
	check := outs.check
	if err := e.beginTimed(); err != nil {
		return err
	}
	ops := 0
	for ops == 0 || time.Now().Before(e.deadline()) {
		op := e.tr.newOp()
		root := e.tr.begin(0, op, 0, "op", "jobstream-1k run")
		dir := filepath.Join(e.dir, fmt.Sprintf("op-%d", ops))
		start := time.Now()
		ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 2, CacheDir: dir})
		if err != nil {
			return err
		}
		out, _, err := runSpec(e, ex, rs, root, op, 0, "Executor.Run cold")
		d := time.Since(start)
		e.opWall = append(e.opWall, d.Seconds())
		e.add(&e.miss, d)
		e.add(&e.req, d)
		check("cold run", out, err)
		settle()
		for k := 0; k < hitRepeats; k++ {
			out, d, err := runSpec(e, ex, rs, root, op, 0, "Executor.Run warm")
			e.add(&e.hit, d)
			check("memory hit", out, err)
		}
		for k := 0; k < diskHitRepeats; k++ {
			start := time.Now()
			ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 2, CacheDir: dir})
			if err != nil {
				return err
			}
			out, _, err := runSpec(e, ex, rs, root, op, 0, "Executor.Run disk")
			e.add(&e.diskHit, time.Since(start))
			if err == nil && ex.CacheStats().DiskHits != 1 {
				err = fmt.Errorf("disk hit expected, cache stats %v", ex.CacheStats())
			}
			check("disk hit", out, err)
		}
		e.tr.end(root)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		ops++
	}
	e.endTimed(float64(ops), float64(ops)*units)

	ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: 2})
	if err != nil {
		return err
	}
	out, _, err := runSpec(e, ex, jobstreamSpec(e.seed, "symbolic"), 0, e.tr.newOp(), 0, "Executor.Run symbolic")
	check("symbolic engine", out, err)
	return nil
}
