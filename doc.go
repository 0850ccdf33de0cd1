// Package repro is a from-scratch Go reproduction of
//
//	Xian-He Sun, Yong Chen, Ming Wu,
//	"Scalability of Heterogeneous Computing", ICPP 2005.
//
// The paper proposes the isospeed-efficiency scalability metric for
// heterogeneous computing systems. This module implements the metric, the
// analytical results built on it (Theorem 1, Corollaries 1-2, the §4.5
// prediction method), and the entire experimental substrate needed to
// reproduce the paper's evaluation: a heterogeneous cluster model with
// NPB-style marked-speed benchmarking, a virtual-time message-passing
// runtime with goroutine and discrete-event engines, a shared-Ethernet
// cost model, and the two evaluated parallel algorithms (heterogeneous
// Gaussian elimination and matrix multiplication) with verified numerics.
//
// Layout:
//
//	internal/core        the metric library (the paper's contribution)
//	internal/cluster     nodes, marked speed, Sunwulf profiles
//	internal/nasbench    NPB-style kernels measuring marked speed
//	internal/simnet      communication cost models + calibration
//	internal/des         discrete-event simulation kernel
//	internal/mpi         virtual-time message passing (2 engines)
//	internal/dist        heterogeneous data distributions
//	internal/linalg      dense kernels and sequential references
//	internal/workload    the parallel algorithms, one file each, and their registry
//	internal/faults      deterministic fault plans and injection
//	internal/experiments every table and figure of the paper
//	cmd/hetsim           run any experiment from the command line
//	cmd/markedspeed      Table 1 + host measurement (+ -speeds tables)
//	cmd/scalescan        scalability scans for any registered workload
//	cmd/faultscan        fault and recovery scans for any registered workload
//
// This root package is a thin façade over internal/experiments for
// programmatic use; its example_test.go holds output-checked
// walkthroughs. See README.md for the guided tour and EXPERIMENTS.md for
// the paper-vs-reproduction record.
package repro

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/workload"
)

// ExperimentIDs lists the reproducible experiments (table1..table7, fig1,
// fig2, compare, and the validation/ablation studies).
func ExperimentIDs() []string { return experiments.IDs() }

// WorkloadNames lists the registered workloads (the algorithm-system
// combinations every study, sweep, and CLI can run).
func WorkloadNames() []string { return workload.Names() }

// WorkloadAbout describes one registered workload.
func WorkloadAbout(name string) (string, error) {
	w, err := workload.Get(name)
	if err != nil {
		return "", err
	}
	return w.About(), nil
}

// ExperimentAbout describes one experiment id.
func ExperimentAbout(id string) (string, error) {
	exp, ok := experiments.Lookup(id)
	if !ok {
		return "", fmt.Errorf("repro: unknown experiment %q", id)
	}
	return exp.About, nil
}

// RunExperiment regenerates one experiment (or "all") and returns the
// rendered outputs. quick=true uses the reduced 2/4/8-node ladder; false
// runs the paper's full 2..32 ladder (minutes of CPU).
func RunExperiment(id string, quick bool) ([]string, error) {
	cfg := experiments.Default()
	if quick {
		cfg = experiments.Quick()
	}
	suite, err := experiments.NewSuite(cfg, nil)
	if err != nil {
		return nil, err
	}
	ids, err := experiments.Resolve(id)
	if err != nil {
		return nil, err
	}
	outcomes, err := experiments.RunSelected(context.Background(), suite, ids, runner.Options{})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, r := range experiments.Flatten(outcomes) {
		out = append(out, r.String())
	}
	return out, nil
}
