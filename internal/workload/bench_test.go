package workload_test

import (
	"context"
	"testing"

	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Symbolic-rung benchmarks: the cost of one fast-forward workload run at
// an executable width against the DES engine pricing the same program,
// and the closed-form pricing of a rung no engine executes. The
// end-to-end host-time numbers PRs are gated on come from perfbench/
// (declared in BENCHMARK.json), which times every workload rung too.

func benchModelW(b *testing.B) simnet.CostModel {
	b.Helper()
	m, err := simnet.NewParamModel("bench", simnet.Sunwulf100())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkWorkloadRung runs each registered workload once per iteration
// at the widest paper rung (p = 32, N = 96) on the DES and symbolic
// engines. The symbolic/des ratio is the fast-forward speedup at a width
// where both are exact.
func BenchmarkWorkloadRung(b *testing.B) {
	model := benchModelW(b)
	engines := []struct {
		name string
		e    mpi.Engine
	}{
		{"des", mpi.EngineDES},
		{"symbolic", mpi.EngineSymbolic},
	}
	for _, w := range workload.All() {
		for _, eng := range engines {
			b.Run(w.Name()+"/"+eng.name, func(b *testing.B) {
				cl, err := w.ClusterLadder(32)
				if err != nil {
					b.Fatal(err)
				}
				spec := workload.Spec{N: 96, Seed: 7, Symbolic: true}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Run(context.Background(), cl, model, mpi.Options{Engine: eng.e}, spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSymbolicRung runs each registered workload's symbolic mode
// once per iteration at p = 8, N = 800 on the live and symbolic engines.
// Its payloads are megabytes per message, so B/op shows whether a
// symbolic run builds or copies them (it should not: every payload is an
// mpi.Blank).
func BenchmarkSymbolicRung(b *testing.B) {
	model := benchModelW(b)
	engines := []struct {
		name string
		e    mpi.Engine
	}{
		{"live", mpi.EngineLive},
		{"symbolic", mpi.EngineSymbolic},
	}
	for _, w := range workload.All() {
		for _, eng := range engines {
			b.Run(w.Name()+"/"+eng.name, func(b *testing.B) {
				cl, err := w.ClusterLadder(8)
				if err != nil {
					b.Fatal(err)
				}
				spec := workload.Spec{N: 800, Seed: 7, Symbolic: true}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Run(context.Background(), cl, model, mpi.Options{Engine: eng.e}, spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAsymptoticMillionRankRung prices one closed-form ladder rung at
// p = 10^6 — cluster construction included, exactly what scalescan -asym
// and the asymscale experiment do per rung. This is the acceptance-scale
// unit: it must stay well under 5 s.
func BenchmarkAsymptoticMillionRankRung(b *testing.B) {
	model := benchModelW(b)
	w := workload.MustGet("ge")
	for i := 0; i < b.N; i++ {
		cl, err := w.ClusterLadder(1000000)
		if err != nil {
			b.Fatal(err)
		}
		m, err := w.Machine(cl, model)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.RequiredN(w.DefaultTarget(), 8, 1e12); err != nil {
			b.Fatal(err)
		}
	}
}
