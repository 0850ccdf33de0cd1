// Command faultscan measures the speed-efficiency cost of runtime faults:
// it runs one algorithm-system combination twice — healthy, then under a
// deterministic fault plan — and reports the isospeed-efficiency ψ of the
// degraded configuration relative to the fault-free baseline.
//
// The fault plan comes either from a JSON spec file (see -example for the
// schema: stragglers, link degradation, message drops, crashes) or from
// the one-knob intensity model (-intensity 0..1). Every probabilistic
// draw derives from the plan seed, so repeating an invocation reproduces
// its output byte for byte.
//
// Usage:
//
//	faultscan -spec plan.json -workload ge -p 8 -n 400
//	faultscan -intensity 0.5 -seed 7 -workload mm -p 8 -n 300
//	faultscan -example            # print a fault-spec template and exit
//	faultscan -list               # list registered workloads and exit
//
// Any workload in the registry can be scanned (-workload; -alg is an
// alias kept for compatibility); each supplies its own cluster ladder,
// run entry point, and recovery codec.
//
// When the plan crashes nodes, the run tears down gracefully and the
// fault outcome (who crashed, who aborted, when) is reported instead of a
// finish time. With -recover the run instead checkpoints at phase
// boundaries and survives the crash: it rolls back to the last committed
// checkpoint, redistributes the dead rank's share across the survivors,
// and reports a finite recovered time (and ψ) plus the rollback history.
//
// The flags parse into a canonical RunSpec (internal/spec) with the
// fault plan embedded — `-intensity` expands to its derived plan — so
// the same scan can be POSTed to `hetsim -serve` and returns the same
// bytes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/faults"
	"repro/internal/spec"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faultscan:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("faultscan", flag.ContinueOnError)
	var (
		specPath  = fs.String("spec", "", "path to a JSON fault spec (see -example)")
		intensity = fs.Float64("intensity", -1, "one-knob fault intensity in [0,1] (alternative to -spec)")
		seed      = fs.Int64("seed", 1, "seed for the intensity model's fault draws")
		wl        = fs.String("workload", "", "registered workload to scan (see scalescan -list; default ge)")
		alg       = fs.String("alg", "", "alias for -workload (kept for compatibility)")
		p         = fs.Int("p", 8, "system size (Sunwulf configuration, as in the paper)")
		n         = fs.Int("n", 400, "problem size N")
		engine    = fs.String("engine", "live", "mpi engine: live, des or symbolic")
		doRecover = fs.Bool("recover", false, "survive crashes with checkpoint/rollback recovery")
		ckptIvl   = fs.Int("ckpt-interval", 50, "checkpoint cadence in algorithm steps for -recover (0 = restart from scratch)")
		list      = fs.Bool("list", false, "list registered workloads, then exit")
		example   = fs.Bool("example", false, "print a fault-spec template and exit")
		csv       = fs.Bool("csv", false, "emit CSV")
		jsonOut   = fs.Bool("json", false, "emit JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(out, "registered workloads (-workload):")
		for _, w := range workload.All() {
			fmt.Fprintf(out, "  %-18s %s\n", w.Name(), w.About())
		}
		return nil
	}
	if *example {
		fmt.Fprintln(out, faults.ExampleSpec)
		return nil
	}

	// The plan is embedded in the RunSpec: a -spec file is inlined and
	// -intensity expands to the plan it derives, so the spec carries the
	// full fault description with no file or knob left behind.
	var plan faults.Spec
	switch {
	case *specPath != "" && *intensity >= 0:
		return fmt.Errorf("-spec and -intensity are mutually exclusive")
	case *specPath != "":
		s, err := faults.LoadSpec(*specPath)
		if err != nil {
			return err
		}
		plan = s
	case *intensity >= 0:
		s, err := faults.Intensity(*seed, *intensity)
		if err != nil {
			return err
		}
		plan = s
	default:
		return fmt.Errorf("missing fault plan: pass -spec file or -intensity x (use -example for a template)")
	}

	name, err := spec.ParseWorkload(*wl, *alg)
	if err != nil {
		return err
	}
	format, err := spec.ParseFormat(*csv, *jsonOut)
	if err != nil {
		return err
	}
	rs := spec.RunSpec{
		Kind:     spec.KindFaultscan,
		Format:   format,
		Engine:   *engine,
		Workload: name,
		P:        *p,
		N:        *n,
		Faults:   &plan,
		Recover:  *doRecover,
	}
	if *doRecover {
		rs.CkptInterval = *ckptIvl
	}

	ex, err := spec.NewExecutor(spec.ExecutorOptions{})
	if err != nil {
		return err
	}
	return ex.Run(context.Background(), rs, out)
}
