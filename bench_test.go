package repro

// The benchmark harness: one benchmark per table and figure of the paper,
// regenerating the experiment each time it runs, plus end-to-end benches
// of the two algorithm-system combinations and the ablation studies.
//
//	go test -bench=. -benchmem            # full harness
//	go test -bench=Table4 -benchtime=1x   # one table, one regeneration
//
// The paper-ladder suite is shared across benchmarks (sync.Once): the
// expensive measurement sweeps run once per process; each benchmark then
// regenerates its table/figure from the measured chains, which is the
// quantity being timed.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/workload"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

// paperSuite returns the shared full-ladder suite (2..32 nodes), warming
// the measured GE and MM chains on first use.
func paperSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.NewSuite(experiments.Default(), nil)
		if suiteErr != nil {
			return
		}
		// Warm the memoized chains so individual table benches time the
		// regeneration, not the shared sweep.
		if _, err := suite.GEChainMeasured(context.Background()); err != nil {
			suiteErr = err
			return
		}
		if _, err := suite.MMChainMeasured(context.Background()); err != nil {
			suiteErr = err
		}
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

func benchTable(b *testing.B, gen func() error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := gen(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure --------------------------------

func BenchmarkTable1MarkedSpeed(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.Table1(context.Background()); return err })
}

func BenchmarkTable2GETwoNodes(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.Table2(context.Background()); return err })
}

func BenchmarkFig1EfficiencyCurve(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, _, err := s.Fig1(context.Background()); return err })
}

func BenchmarkTable3RequiredRank(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.Table3(context.Background()); return err })
}

func BenchmarkTable4GEScalability(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.Table4(context.Background()); return err })
}

func BenchmarkFig2MMEfficiency(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.Fig2(context.Background()); return err })
}

func BenchmarkTable5MMScalability(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.Table5(context.Background()); return err })
}

func BenchmarkCompareGEMM(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.CompareGEMM(context.Background()); return err })
}

func BenchmarkTable6PredictedRank(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, _, err := s.Table6(context.Background()); return err })
}

func BenchmarkTable7PredictedScalability(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.Table7(context.Background()); return err })
}

// --- Validation and ablation benches (DESIGN.md §5) ----------------------

func BenchmarkHomogeneousSpecialCase(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.HomogeneousCheck(context.Background()); return err })
}

func BenchmarkAblateDistribution(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.AblateDistribution(context.Background()); return err })
}

func BenchmarkAblateContention(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.AblateContention(context.Background()); return err })
}

func BenchmarkAblateTiling(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.AblateTiling(context.Background()); return err })
}

func BenchmarkAblateNetworks(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.AblateNetworks(context.Background()); return err })
}

func BenchmarkThreeWayComparison(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.ThreeWay(context.Background()); return err })
}

func BenchmarkMemoryBounded(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.MemBound(context.Background()); return err })
}

func BenchmarkTraceDecomposition(b *testing.B) {
	s := paperSuite(b)
	benchTable(b, func() error { _, err := s.TraceDecomposition(context.Background()); return err })
}

// --- End-to-end algorithm benches (one virtual-time run per iteration) ---

func benchModel(b *testing.B) simnet.CostModel {
	b.Helper()
	m, err := simnet.NewParamModel("bench", simnet.Sunwulf100())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkGESymbolicC8N1000(b *testing.B) {
	cl, err := cluster.GEConfig(8)
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (workload.GE{}).Run(context.Background(), cl, m, mpi.Options{}, workload.Spec{N: 1000, Symbolic: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGERealC4N200(b *testing.B) {
	cl, err := cluster.GEConfig(4)
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (workload.GE{}).Run(context.Background(), cl, m, mpi.Options{}, workload.Spec{N: 200, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMMSymbolicC8N500(b *testing.B) {
	cl, err := cluster.MMConfig(8)
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (workload.MM{}).Run(context.Background(), cl, m, mpi.Options{}, workload.Spec{N: 500, Symbolic: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMMRealC4N128(b *testing.B) {
	cl, err := cluster.MMConfig(4)
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (workload.MM{}).Run(context.Background(), cl, m, mpi.Options{}, workload.Spec{N: 128, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiSymbolicC8N500(b *testing.B) {
	cl, err := cluster.MMConfig(8)
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (workload.Jacobi{}).Run(context.Background(), cl, m, mpi.Options{}, workload.Spec{N: 500, Symbolic: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiRealC4N96(b *testing.B) {
	cl, err := cluster.MMConfig(4)
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (workload.Jacobi{}).Run(context.Background(), cl, m, mpi.Options{}, workload.Spec{N: 96, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDESvsLive pins the relative cost of the two engines on
// the same workload.
func BenchmarkEngineLiveGEN400(b *testing.B) { benchEngine(b, mpi.EngineLive) }
func BenchmarkEngineDESGEN400(b *testing.B)  { benchEngine(b, mpi.EngineDES) }

func benchEngine(b *testing.B, engine mpi.Engine) {
	b.Helper()
	cl, err := cluster.GEConfig(4)
	if err != nil {
		b.Fatal(err)
	}
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (workload.GE{}).Run(context.Background(), cl, m, mpi.Options{Engine: engine}, workload.Spec{N: 400, Symbolic: true}); err != nil {
			b.Fatal(err)
		}
	}
}
