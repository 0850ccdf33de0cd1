// Command scalescan runs an isospeed-efficiency scalability scan for a
// user-described heterogeneous cluster ladder: the generic version of the
// paper's Tables 3-5 for arbitrary machines and any registered workload.
//
// The ladder is described in JSON (one cluster per rung):
//
//	{
//	  "ladder": [
//	    {"name": "small", "nodes": [
//	      {"name": "a0", "class": "fast", "speedMflops": 90, "memMB": 2048},
//	      {"name": "a1", "class": "slow", "speedMflops": 40, "memMB": 512}
//	    ]},
//	    {"name": "big", "nodes": [ ... more nodes ... ]}
//	  ]
//	}
//
// Usage:
//
//	scalescan -ladder ladder.json -workload ge -target 0.3
//	scalescan -ladder ladder.json -workload mm -jobs 4 -json
//	scalescan -ladder ladder.json -speeds measured.json   # benchmarked speeds
//	scalescan -workload ge -asym 100,10000,1000000        # closed-form rungs
//	scalescan -list               # print workloads and experiments
//	scalescan -example            # print a ladder template and exit
//
// With -speeds, node speeds in the ladder are overridden by a marked-speed
// table (as written by `markedspeed -speeds`), closing the Definition 1
// loop: benchmark first, then study scalability at the benchmarked speeds.
//
// With -asym, no ladder file and no measured sweeps are involved: the
// workload's own cluster ladder is extended to the given system sizes and
// each rung is priced purely in closed form (the symbolic cost model's
// asymptotic regime), which is what makes p = 10^5..10^6 rungs take
// seconds. The differential suites in internal/mpi and internal/workload
// are the license for trusting those numbers: the same pricing is proven
// bit-identical to the DES engine at every executable width.
//
// The flags parse into a canonical RunSpec (internal/spec) with the
// ladder — speeds applied — embedded, so the same scan can be POSTed to
// `hetsim -serve` and returns the same bytes. Rungs are measured
// concurrently on a bounded worker pool (-jobs, default: one per CPU);
// the reported tables are byte-identical for every worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/spec"
	"repro/internal/workload"
)

const exampleLadder = `{
  "ladder": [
    {"name": "C2", "nodes": [
      {"name": "n0", "class": "fast", "speedMflops": 90, "memMB": 2048},
      {"name": "n1", "class": "slow", "speedMflops": 40, "memMB": 512}
    ]},
    {"name": "C4", "nodes": [
      {"name": "n0", "class": "fast", "speedMflops": 90, "memMB": 2048},
      {"name": "n1", "class": "fast", "speedMflops": 90, "memMB": 2048},
      {"name": "n2", "class": "slow", "speedMflops": 40, "memMB": 512},
      {"name": "n3", "class": "slow", "speedMflops": 40, "memMB": 512}
    ]}
  ]
}`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scalescan:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scalescan", flag.ContinueOnError)
	var (
		ladderPath = fs.String("ladder", "", "path to the JSON ladder description")
		wl         = fs.String("workload", "", "registered workload to scan (see -list; default ge)")
		alg        = fs.String("alg", "", "alias for -workload (kept for compatibility)")
		target     = fs.Float64("target", 0, "speed-efficiency set-point (default: the workload's own)")
		speedsPath = fs.String("speeds", "", "marked-speed table (JSON) overriding ladder node speeds")
		asym       = fs.String("asym", "", "comma-separated system sizes for a closed-form asymptotic ladder (e.g. 100,10000,1e6); no -ladder file, no measured sweeps")
		engineStr  = fs.String("engine", "live", "execution engine for measured sweeps: live, des or symbolic")
		list       = fs.Bool("list", false, "list registered workloads and experiments, then exit")
		example    = fs.Bool("example", false, "print a ladder template and exit")
		csv        = fs.Bool("csv", false, "emit CSV")
		jsonOut    = fs.Bool("json", false, "emit JSON")
		jobs       = fs.Int("jobs", runtime.GOMAXPROCS(0), "worker-pool size for measuring rungs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printList(out)
		return nil
	}
	if *example {
		fmt.Fprintln(out, exampleLadder)
		return nil
	}
	name, err := workloadName(*wl, *alg)
	if err != nil {
		return err
	}
	format, err := spec.ParseFormat(*csv, *jsonOut)
	if err != nil {
		return err
	}
	rs := spec.RunSpec{
		Kind:     spec.KindScalescan,
		Format:   format,
		Engine:   *engineStr,
		Workload: name,
		Target:   *target,
	}
	if *asym != "" {
		if *ladderPath != "" {
			return fmt.Errorf("-asym and -ladder are mutually exclusive (the asymptotic mode uses the workload's own ladder)")
		}
		sizes, err := parseAsymSizes(*asym)
		if err != nil {
			return err
		}
		rs.AsymSizes = sizes
	} else {
		if *ladderPath == "" {
			return fmt.Errorf("missing -ladder file (use -example for a template, or -asym for closed-form rungs)")
		}
		ladder, err := cluster.LoadLadder(*ladderPath)
		if err != nil {
			return err
		}
		if *speedsPath != "" {
			table, err := cluster.LoadSpeedTable(*speedsPath)
			if err != nil {
				return err
			}
			if ladder, err = ladder.ApplySpeeds(table); err != nil {
				return err
			}
		}
		// The ladder is embedded (speeds already applied) so the spec is
		// self-contained: the server never sees a file path.
		rs.Ladder = &ladder
	}

	ex, err := spec.NewExecutor(spec.ExecutorOptions{Jobs: *jobs})
	if err != nil {
		return err
	}
	return ex.Run(context.Background(), rs, out)
}

// parseAsymSizes parses the -asym list of system sizes. Scientific
// notation is accepted ("1e6"); sizes must be >= 2 and strictly
// increasing so the ψ chain reads small -> large.
func parseAsymSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	prev := 1
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -asym size %q: %v", part, err)
		}
		p := int(math.Round(v))
		if p < 2 || float64(p) != v {
			return nil, fmt.Errorf("bad -asym size %q: need an integer >= 2", part)
		}
		if p <= prev {
			return nil, fmt.Errorf("-asym sizes must be strictly increasing (%d after %d)", p, prev)
		}
		sizes = append(sizes, p)
		prev = p
	}
	if len(sizes) < 2 {
		return nil, fmt.Errorf("-asym needs at least two sizes to form a ψ chain, got %d", len(sizes))
	}
	return sizes, nil
}

// workloadName resolves the -workload/-alg pair ("" lets the spec
// default to ge after checking the registry).
func workloadName(wl, alg string) (string, error) {
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

// printList writes the registry contents: workloads first (this tool's
// selectors), then the experiment catalog shared with hetsim.
func printList(out io.Writer) {
	fmt.Fprintln(out, "registered workloads (-workload):")
	for _, w := range workload.All() {
		fmt.Fprintf(out, "  %-18s %s\n", w.Name(), w.About())
	}
	fmt.Fprintln(out, "registered experiments (hetsim -exp):")
	for _, g := range experiments.Groups() {
		fmt.Fprintf(out, "group:%s\n", g)
		for _, e := range experiments.ByGroup(g) {
			fmt.Fprintf(out, "  %-18s %s\n", e.ID, e.About)
		}
	}
}
