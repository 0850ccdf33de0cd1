// Command hetsim regenerates the paper's tables and figures on the
// simulated Sunwulf substrate — as a one-shot CLI, as a client of a
// running server, or as the server itself.
//
// Usage:
//
//	hetsim -list
//	hetsim -exp table4
//	hetsim -exp all -quick -jobs 4
//	hetsim -exp group:ablation -quick
//	hetsim -exp fig2 -csv
//	hetsim -exp all -quick -json
//	hetsim -exp table3 -engine des -contended
//	hetsim -exp table2 -quick -trace table2.json
//	hetsim -exp jobstream -quick
//	hetsim -spec stream.json
//	hetsim -exp all -cache-dir ~/.cache/hetsim
//	hetsim -exp all -cache-dir ~/.cache/hetsim -cache-max-bytes 67108864
//	hetsim -serve 127.0.0.1:8080 -cache-dir /var/cache/hetsim
//	hetsim -exp table2 -quick -client http://127.0.0.1:8080
//	hetsim -cache-dir /var/cache/hetsim -cache-info
//	hetsim -cache-dir /var/cache/hetsim -cache-purge
//
// -exp accepts an experiment id (see -list), "all", "quick" (the
// analytic-only subset), or "group:<name>" (paper, validation, ablation,
// extension, faults). Experiments are scheduled on a bounded worker pool
// (-jobs, default: one per CPU); shared measurement sweeps are computed
// once and stdout is byte-identical for every worker count.
//
// Flags parse into a canonical RunSpec (internal/spec) — the same
// document `hetsim -serve` accepts over HTTP — so a POSTed spec and its
// CLI spelling produce byte-identical output. -spec <file> runs a
// RunSpec JSON document directly (any kind — including jobstream specs
// with custom tenant streams). With -cache-dir results persist across
// processes: a warm directory serves repeated runs without recomputing
// anything; -cache-max-bytes caps the directory with least-recently-used
// eviction.
//
// -trace <file> additionally records the virtual timeline of every
// algorithm run the selected experiments execute and writes it as Chrome
// trace-event JSON — open the file in chrome://tracing or
// https://ui.perfetto.dev.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hetsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("hetsim", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "", "experiment selector: id, 'all', 'quick', or 'group:<name>' (see -list)")
		specFile   = fs.String("spec", "", "run a RunSpec JSON file (any kind; mutually exclusive with -exp)")
		list       = fs.Bool("list", false, "list available experiments")
		quick      = fs.Bool("quick", false, "reduced ladder (2,4,8 nodes) and sweeps")
		csv        = fs.Bool("csv", false, "emit CSV instead of rendered tables")
		jsonOut    = fs.Bool("json", false, "emit one JSON document holding every result")
		md         = fs.Bool("md", false, "emit a markdown report (with -exp all: the full reproduction report)")
		engine     = fs.String("engine", "live", "execution engine: live, des or symbolic")
		contended  = fs.Bool("contended", false, "shared-Ethernet contention (des engine only)")
		geTarget   = fs.Float64("ge-target", 0.3, "speed-efficiency set-point for GE read-offs")
		mmTarget   = fs.Float64("mm-target", 0.2, "speed-efficiency set-point for MM read-offs")
		jobs       = fs.Int("jobs", runtime.GOMAXPROCS(0), "worker-pool size for running experiments")
		traceOut   = fs.String("trace", "", "write a Chrome trace of the selected experiments' runs to this file")
		verbose    = fs.Bool("v", false, "narrate per-experiment progress and cache stats on stderr")
		serveAddr  = fs.String("serve", "", "serve RunSpecs over HTTP on this address (e.g. 127.0.0.1:8080; :0 picks a port)")
		serveTO    = fs.Duration("serve-timeout", 0, "per-request execution deadline in server mode (e.g. 30s; 0: unbounded); exceeding it returns 503")
		clientURL  = fs.String("client", "", "send the run to a hetsim server at this base URL instead of executing locally")
		cacheDir   = fs.String("cache-dir", "", "persist results content-addressed under this directory (survives restarts)")
		cacheMax   = fs.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries past this total size (0: unbounded; needs -cache-dir)")
		cacheInfo  = fs.Bool("cache-info", false, "report the persistent cache's entry count and size, then exit (needs -cache-dir)")
		cachePurge = fs.Bool("cache-purge", false, "delete every persistent cache entry, then exit (needs -cache-dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *cacheInfo && *cachePurge:
		return fmt.Errorf("-cache-info and -cache-purge are mutually exclusive")
	case *cacheInfo:
		return reportCache(out, *cacheDir)
	case *cachePurge:
		return purgeCache(out, *cacheDir)
	}
	if *list {
		printList(out)
		return nil
	}
	if *cacheMax < 0 {
		return fmt.Errorf("-cache-max-bytes must be >= 0")
	}
	if *cacheMax > 0 && *cacheDir == "" {
		return fmt.Errorf("-cache-max-bytes needs -cache-dir")
	}
	if *serveAddr != "" {
		ex, err := spec.NewExecutor(spec.ExecutorOptions{
			Jobs:          *jobs,
			Pool:          runner.NewPool(*jobs),
			CacheDir:      *cacheDir,
			CacheMaxBytes: *cacheMax,
			Hooks:         runner.Progress(errw, *verbose),
		})
		if err != nil {
			return err
		}
		return serveHTTP(*serveAddr, ex, serve.Options{Timeout: *serveTO}, errw)
	}
	if *serveTO != 0 {
		return fmt.Errorf("-serve-timeout needs -serve")
	}
	if *md && (*csv || *jsonOut || *traceOut != "") {
		return fmt.Errorf("-md writes a markdown report; it cannot be combined with -csv, -json or -trace")
	}
	var rs spec.RunSpec
	switch {
	case *specFile != "" && *exp != "":
		return fmt.Errorf("-exp and -spec are mutually exclusive")
	case *specFile != "":
		// The file sets the output format and every run setting; a flag
		// for one of them beside it would be silently dropped.
		var dropped []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "csv", "json", "quick", "engine", "contended", "ge-target", "mm-target":
				dropped = append(dropped, "-"+f.Name)
			}
		})
		if len(dropped) > 0 {
			return fmt.Errorf("-spec takes its format and run settings from the file; %s cannot be combined with it", strings.Join(dropped, ", "))
		}
		f, err := os.Open(*specFile)
		if err != nil {
			return err
		}
		decoded, derr := spec.Decode(f)
		f.Close()
		if derr != nil {
			return derr
		}
		rs = *decoded
	case *exp != "":
		format, err := spec.ParseFormat(*csv, *jsonOut)
		if err != nil {
			return err
		}
		rs = spec.RunSpec{
			Kind:        spec.KindExperiments,
			Format:      format,
			Engine:      *engine,
			Experiments: *exp,
			Quick:       *quick,
			Contended:   *contended,
			GETarget:    *geTarget,
			MMTarget:    *mmTarget,
		}
		if err := rs.Normalize(); err != nil {
			return err
		}
		if err := rs.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("missing -exp or -spec (or -list); try: hetsim -exp table4")
	}

	if *clientURL != "" {
		if *md || *traceOut != "" {
			return fmt.Errorf("-md and -trace run locally (the server's /trace endpoint returns traces directly)")
		}
		return runClient(*clientURL, rs, out)
	}

	ex, err := spec.NewExecutor(spec.ExecutorOptions{
		Jobs:          *jobs,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		Hooks:         runner.Progress(errw, *verbose),
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	switch {
	case *md:
		suite, err := ex.Suite(rs)
		if err != nil {
			return err
		}
		ids, err := experiments.Resolve(rs.Experiments)
		if err != nil {
			return err
		}
		opts := runner.Options{Jobs: *jobs, Hooks: runner.Progress(errw, *verbose)}
		if err := experiments.WriteMarkdownReport(ctx, suite, out, ids, time.Now(), opts); err != nil {
			return err
		}
	case *traceOut != "":
		// Created before the (possibly long) run so an unwritable path
		// fails immediately.
		traceFile, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
		defer traceFile.Close()
		if err := ex.RunTrace(ctx, rs, out, traceFile); err != nil {
			return err
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
		fmt.Fprintf(errw, "trace: wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	default:
		if err := ex.Run(ctx, rs, out); err != nil {
			return err
		}
	}
	if *verbose {
		fmt.Fprintf(errw, "cache: %s\n", ex.CacheStats())
	}
	return nil
}

// printList writes the experiment catalog and workload registry.
func printList(out io.Writer) {
	fmt.Fprintln(out, "available experiments:")
	for _, g := range experiments.Groups() {
		fmt.Fprintf(out, "group:%s\n", g)
		for _, e := range experiments.ByGroup(g) {
			quickMark := " "
			if e.Quick {
				quickMark = "*"
			}
			fmt.Fprintf(out, "  %-18s %s %s\n", e.ID, quickMark, e.About)
		}
	}
	fmt.Fprintln(out, "registered workloads (selectable in scalescan/faultscan via -workload):")
	for _, w := range workload.All() {
		fmt.Fprintf(out, "  %-18s   %s\n", w.Name(), w.About())
	}
	fmt.Fprintln(out, "selectors: an id above, 'all', 'quick' (the * entries), or 'group:<name>'")
}

// serveHTTP runs the RunSpec server until the listener fails. The
// resolved address is announced on errw (stderr) so callers binding
// ":0" can discover the port.
func serveHTTP(addr string, ex *spec.Executor, opts serve.Options, errw io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "hetsim: serving on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: serve.NewWith(ex, opts).Handler()}
	return srv.Serve(ln)
}

// runClient POSTs the canonical spec to a hetsim server's /run and
// streams the response — which is byte-identical to a local run of the
// same spec — to out.
func runClient(baseURL string, rs spec.RunSpec, out io.Writer) error {
	payload, err := rs.Canonical()
	if err != nil {
		return err
	}
	url := strings.TrimRight(baseURL, "/") + "/run"
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server %s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))
	}
	_, err = io.Copy(out, resp.Body)
	return err
}

// reportCache prints the persistent layer's entry count and byte size.
func reportCache(out io.Writer, dir string) error {
	if dir == "" {
		return fmt.Errorf("-cache-info needs -cache-dir")
	}
	disk, err := runner.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	entries, size, err := disk.Info()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cache %s: %d entries, %d bytes\n", dir, entries, size)
	return nil
}

// purgeCache deletes every persistent entry.
func purgeCache(out io.Writer, dir string) error {
	if dir == "" {
		return fmt.Errorf("-cache-purge needs -cache-dir")
	}
	disk, err := runner.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	removed, err := disk.Purge()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cache %s: purged %d entries\n", dir, removed)
	return nil
}
