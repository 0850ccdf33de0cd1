package repro_test

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The examples walk through the library the way a user would: run a
// workload, evaluate the metric, predict scalability from the analytic
// model, compare against the related metrics, and read a trace. `go test`
// checks everything they print.

// must unwraps a (value, error) pair, panicking on error: examples have
// no caller to report to.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Example_quickstart builds a heterogeneous cluster, runs the parallel
// matrix multiplication on it, and evaluates the isospeed-efficiency
// metric.
func Example_quickstart() {
	ctx := context.Background()
	// 1. Describe the machine: three node classes with different marked
	//    speeds (Definition 1), summed into the system marked speed
	//    (Definition 2).
	cl := must(cluster.New("demo",
		cluster.ServerNode(0),
		cluster.BladeNode(40),
		cluster.BladeNode(41),
		cluster.V210Node(65, 0),
	))
	fmt.Println("cluster:", cl)

	// 2. Pick the interconnect model: the Sunwulf-style 100 Mb Ethernet.
	model := must(simnet.NewParamModel("ethernet", simnet.Sunwulf100()))

	// 3. Run the real parallel MM (data actually moves and multiplies;
	//    time is virtual).
	mm := workload.MustGet("mm")
	const n = 192
	out := must(mm.Run(ctx, cl, model, mpi.Options{}, workload.Spec{N: n, Seed: 42}))
	fmt.Printf("MM %dx%d: T = %.2f ms over %d messages (%d bytes)\n",
		n, n, out.Stats.TimeMS, out.Stats.Messages, out.Stats.BytesMoved)

	// 4. Evaluate the paper's metric (Definition 3).
	eff := must(core.SpeedEfficiency(out.Work, out.Stats.TimeMS, cl.MarkedSpeed()))
	speed := must(core.AchievedSpeed(out.Work, out.Stats.TimeMS))
	fmt.Printf("achieved speed %.1f Mflops of %.1f marked -> speed-efficiency E_s = %.3f\n",
		speed, cl.MarkedSpeed(), eff)

	// 5. Scale the system up and ask: what problem size keeps E_s
	//    constant, and what does that say about scalability (ψ)?
	big := must(cluster.New("demo-big",
		cluster.ServerNode(0), cluster.ServerNode(1),
		cluster.BladeNode(40), cluster.BladeNode(41), cluster.BladeNode(42), cluster.BladeNode(43),
		cluster.V210Node(65, 0), cluster.V210Node(66, 0),
	))
	target := eff // hold the efficiency we just achieved
	var points []core.ScalePoint
	for _, c := range []*cluster.Cluster{cl, big} {
		run := workload.Runner(ctx, mm, c, model, mpi.Options{}, workload.Spec{Symbolic: true})
		curve := must(core.MeasureCurve(c.Name, c.MarkedSpeed(),
			[]int{n / 4, n / 2, n, 2 * n, 4 * n, 8 * n}, 3, run))
		nReq := int(must(curve.RequiredSize(target)) + 0.5)
		points = append(points, core.ScalePoint{
			Label: c.Name, C: c.MarkedSpeed(), N: nReq, W: mm.WorkAt(nReq),
		})
		fmt.Printf("%s needs N ≈ %d to hold E_s = %.3f\n", c.Name, nReq, target)
	}
	psis := must(core.PsiChain(points))
	fmt.Printf("isospeed-efficiency scalability ψ(%s, %s) = %.4f (ideal 1.0)\n",
		points[0].Label, points[1].Label, psis[0])
	// Output:
	// cluster: demo (4 nodes, 210.9 Mflops: 1xServer, 2xSunBlade, 1xSunFireV210)
	// MM 192x192: T = 179.42 ms over 9 messages (1370112 bytes)
	// achieved speed 78.9 Mflops of 210.9 marked -> speed-efficiency E_s = 0.374
	// demo needs N ≈ 215 to hold E_s = 0.374
	// demo-big needs N ≈ 335 to hold E_s = 0.374
	// isospeed-efficiency scalability ψ(demo, demo-big) = 0.5287 (ideal 1.0)
}

// Example_prediction is the paper's §4.5 workflow: calibrate the
// communication constants from timing samples, build the analytic
// overhead model, predict the required problem sizes and ψ for systems
// never measured, then compare against actual measurement.
func Example_prediction() {
	ctx := context.Background()
	model := must(simnet.NewParamModel("ethernet", simnet.Sunwulf100()))

	// Step 1 (paper: "we have measured the parameters on Sunwulf"):
	// recover the communication constants by probing and least-squares
	// fitting, as one would on real hardware.
	cal := must(simnet.CalibrateModel(model, []int{2, 4, 8, 16, 32}, []int{64, 512, 4096, 65536}))
	fmt.Printf("calibrated constants (cf. the paper's measured table):\n")
	fmt.Printf("  T_broadcast ≈ %.3f·p ms            (R²=%.4f)\n", cal.BcastPerProcMS, cal.BcastR2)
	fmt.Printf("  T_barrier   ≈ %.3f·p ms            (R²=%.4f)\n", cal.BarrierPerProcMS, cal.BarrierR2)
	fmt.Printf("  T_send+recv ≈ %.4f + %.2e·bytes ms (R²=%.4f)\n\n",
		cal.SendBaseMS, cal.SendPerByteMS, cal.SendR2)

	// Step 2: analytic machines for the GE ladder (Corollary 2 territory:
	// α ≈ 0 for large N, so ψ ≈ To/To').
	const target = 0.3
	ge := workload.MustGet("ge")
	ladder := []int{2, 4, 8}
	var machines []core.AnalyticMachine
	for _, p := range ladder {
		machines = append(machines, must(ge.Machine(must(cluster.GEConfig(p)), model)))
	}
	preds, psiDef, psiThm, err := core.PredictChain(machines, target, 8, 5e6)
	if err != nil {
		panic(err)
	}
	fmt.Println("predicted required rank (paper Table 6 analogue):")
	for _, p := range preds {
		fmt.Printf("  %-4s N ≈ %5.0f  (To = %8.1f ms, t0 = %6.1f ms)\n", p.Label, p.N, p.To, p.T0)
	}

	// Step 3: measure the same ladder and compare (paper Table 7: "the
	// predicted scalability is close to our measured scalability").
	fmt.Println("\npredicted vs measured ψ (paper Table 7 analogue):")
	var points []core.ScalePoint
	for i, p := range ladder {
		cl := must(cluster.GEConfig(p))
		run := workload.Runner(ctx, ge, cl, model, mpi.Options{}, workload.Spec{Symbolic: true})
		var sizes []int
		for k := 0; k < 7; k++ {
			sizes = append(sizes, int(preds[i].N*(0.45+1.35*float64(k)/6)))
		}
		curve := must(core.MeasureCurve(cl.Name, cl.MarkedSpeed(), sizes, 3, run))
		n := int(must(curve.RequiredSize(target)) + 0.5)
		points = append(points, core.ScalePoint{Label: cl.Name, C: cl.MarkedSpeed(), N: n, W: ge.WorkAt(n)})
	}
	psiMeas := must(core.PsiChain(points))
	for i := range psiMeas {
		fmt.Printf("  %s -> %s: predicted (def) %.4f, predicted (Thm 1) %.4f, measured %.4f\n",
			points[i].Label, points[i+1].Label, psiDef[i], psiThm[i], psiMeas[i])
	}
	// Output:
	// calibrated constants (cf. the paper's measured table):
	//   T_broadcast ≈ 0.230·p ms            (R²=1.0000)
	//   T_barrier   ≈ 0.390·p ms            (R²=1.0000)
	//   T_send+recv ≈ 0.1600 + 1.11e-04·bytes ms (R²=1.0000)
	//
	// predicted required rank (paper Table 6 analogue):
	//   C2   N ≈   593  (To =   1805.3 ms, t0 =   17.2 ms)
	//   C4   N ≈  1029  (To =   5458.3 ms, t0 =   51.8 ms)
	//   C8   N ≈  1902  (To =  18683.4 ms, t0 =  176.9 ms)
	//
	// predicted vs measured ψ (paper Table 7 analogue):
	//   C2 -> C4: predicted (def) 0.3308, predicted (Thm 1) 0.3308, measured 0.3555
	//   C4 -> C8: predicted (def) 0.2922, predicted (Thm 1) 0.2922, measured 0.3065
}

// Example_baselines evaluates the same heterogeneous scaling data with
// the paper's isospeed-efficiency metric and with the related metrics §2
// reviews — homogeneous isospeed, isoefficiency (which needs a
// sequential time), Jogalekar-Woodside productivity, and Pastor-Bosque
// heterogeneous efficiency — showing where each one needs extra inputs
// or loses the heterogeneity.
func Example_baselines() {
	ctx := context.Background()
	model := must(simnet.NewParamModel("ethernet", simnet.Sunwulf100()))

	// One heterogeneous scaling step: MM on 4 -> 8 mixed nodes, problem
	// size chosen to hold E_s = 0.2.
	const target = 0.2
	mm := workload.MustGet("mm")
	type rung struct {
		cl   *cluster.Cluster
		n    int
		time float64 // ms at the chosen n
	}
	var rungs []rung
	for _, p := range []int{4, 8} {
		cl := must(cluster.MMConfig(p))
		run := workload.Runner(ctx, mm, cl, model, mpi.Options{}, workload.Spec{Symbolic: true})
		curve := must(core.MeasureCurve(cl.Name, cl.MarkedSpeed(),
			[]int{24, 48, 96, 192, 384, 768}, 3, run))
		n := int(must(curve.RequiredSize(target)) + 0.5)
		_, t, err := run(n)
		if err != nil {
			panic(err)
		}
		rungs = append(rungs, rung{cl: cl, n: n, time: t})
	}

	w1, w2 := mm.WorkAt(rungs[0].n), mm.WorkAt(rungs[1].n)
	c1, c2 := rungs[0].cl.MarkedSpeed(), rungs[1].cl.MarkedSpeed()

	fmt.Printf("scaling step: %s (C=%.1f, N=%d) -> %s (C=%.1f, N=%d) at E_s = %.2f\n\n",
		rungs[0].cl.Name, c1, rungs[0].n, rungs[1].cl.Name, c2, rungs[1].n, target)

	// 1. Isospeed-efficiency (this paper): no sequential run needed,
	//    heterogeneity handled by marked speed.
	psi := must(core.Psi(c1, w1, c2, w2))
	fmt.Printf("isospeed-efficiency ψ(C,C')      = %.4f   (inputs: W, W', C, C' only)\n", psi)

	// 2. Homogeneous isospeed: forced to pretend nodes are equal; uses
	//    processor counts instead of marked speeds.
	psiIso := must(core.IsospeedPsi(rungs[0].cl.Size(), w1, rungs[1].cl.Size(), w2))
	fmt.Printf("homogeneous isospeed ψ(p,p')     = %.4f   (ignores that V210s are 2x blades)\n", psiIso)

	// 3. Isoefficiency: needs T_seq of the SCALED problem on ONE node —
	//    the impractical measurement the paper criticizes; we must
	//    estimate it.
	for i, r := range rungs {
		tseq := must(core.EstimateSeqTime(mm.WorkAt(r.n), cluster.SunBladeMflops, workload.DefaultMMSustained))
		eff := must(core.ParallelEfficiency(tseq, r.time, r.cl.Size()))
		fmt.Printf("isoefficiency E at rung %d        = %.4f   (needs estimated T_seq = %.0f ms on one SunBlade)\n",
			i+1, eff, tseq)
	}

	// 4. Pastor-Bosque heterogeneous efficiency: heterogeneity via
	//    "equivalent processors", still anchored to a reference node's
	//    sequential time.
	for i, r := range rungs {
		tseq := must(core.EstimateSeqTime(mm.WorkAt(r.n), cluster.SunBladeMflops, workload.DefaultMMSustained))
		eff := must(core.PastorBosqueEfficiency(tseq, r.time, r.cl.MarkedSpeed(), cluster.SunBladeMflops))
		fmt.Printf("Pastor-Bosque E at rung %d        = %.4f   (reference node: SunBlade)\n", i+1, eff)
	}

	// 5. Productivity (Jogalekar-Woodside): needs a money-cost model —
	//    the same data plus an assumed $/node-hour shows how commercial
	//    cost enters the metric.
	const dollarsPerNodeSecond = 0.01
	prods := make([]core.Productivity, 2)
	for i, r := range rungs {
		prods[i] = core.Productivity{
			ThroughputPerSec: 1000.0 / r.time,      // one "job" = one solve
			ValuePerJob:      mm.WorkAt(r.n) / 1e9, // value grows with work done
			CostPerSec:       dollarsPerNodeSecond * float64(r.cl.Size()),
		}
	}
	psiProd := must(core.ProductivityPsi(prods[0], prods[1]))
	fmt.Printf("productivity ψ (F2/F1)           = %.4f   (depends on the $%.2f/node/s price tag)\n",
		psiProd, dollarsPerNodeSecond)

	fmt.Println("\nonly the isospeed-efficiency metric needed nothing beyond (W, T, C) pairs.")
	// Output:
	// scaling step: C4' (C=258.3, N=86) -> C8' (C=521.5, N=145) at E_s = 0.20
	//
	// isospeed-efficiency ψ(C,C')      = 0.4212   (inputs: W, W', C, C' only)
	// homogeneous isospeed ψ(p,p')     = 0.4173   (ignores that V210s are 2x blades)
	// isoefficiency E at rung 1        = 0.5504   (needs estimated T_seq = 50 ms on one SunBlade)
	// isoefficiency E at rung 2        = 0.5215   (needs estimated T_seq = 241 ms on one SunBlade)
	// Pastor-Bosque E at rung 1        = 0.3588   (reference node: SunBlade)
	// Pastor-Bosque E at rung 2        = 0.3368   (reference node: SunBlade)
	// productivity ψ (F2/F1)           = 0.9476   (depends on the $0.01/node/s price tag)
	//
	// only the isospeed-efficiency metric needed nothing beyond (W, T, C) pairs.
}

// Example_tracing records the virtual-time execution of two
// algorithm-system combinations, renders Gantt charts, and derives the
// total parallel overhead To empirically — the trace-level counterpart
// of the analytic models Theorem 1 consumes.
func Example_tracing() {
	ctx := context.Background()
	model := must(simnet.NewParamModel("ethernet", simnet.Sunwulf100()))
	cl := must(cluster.MMConfig(4))
	fmt.Println("cluster:", cl)

	// --- GE: per-iteration broadcast + barrier keep every rank in
	// lock-step; waits dominate.
	tr := trace.New()
	ge := must(workload.MustGet("ge").Run(ctx, cl, model, mpi.Options{Trace: tr}, workload.Spec{N: 96, Seed: 1}))
	fmt.Printf("\n=== Gaussian elimination, N=96 (T = %.1f ms) ===\n", ge.Stats.TimeMS)
	fmt.Print(tr.Gantt(76))
	printBreakdown(tr)

	// --- Jacobi: only neighbour halo exchanges; compute dominates.
	tr2 := trace.New()
	jac := must(workload.MustGet("jacobi").Run(ctx, cl, model, mpi.Options{Trace: tr2}, workload.Spec{N: 96, Seed: 1}))
	fmt.Printf("\n=== Jacobi relaxation, N=96, %d sweeps (T = %.1f ms) ===\n", workload.JacobiIters, jac.Stats.TimeMS)
	fmt.Print(tr2.Gantt(76))
	printBreakdown(tr2)

	fmt.Printf("\ntrace-derived critical overhead To: GE %.1f ms vs Jacobi %.1f ms\n",
		tr.CriticalOverhead(), tr2.CriticalOverhead())
	fmt.Println("(this To is what Theorem 1's ψ = (t0+To)/(t0'+To') consumes)")

	// Traces also export to the Chrome trace-event format for interactive
	// inspection in chrome://tracing or ui.perfetto.dev.
	if err := tr2.WriteChromeTrace(io.Discard); err != nil {
		panic(err)
	}
	// Output:
	// cluster: C4' (4 nodes, 258.3 Mflops: 1xServer, 1xSunBlade, 2xSunFireV210)
	//
	// === Gaussian elimination, N=96 (T = 266.1 ms) ===
	// virtual time 0 .. 266.13 ms
	// rank  0 |>>||.B||.#||.||.B||.||..||.||..||.||B||..|.B||.||.||.||..|B.||.||.||.||.||.#|
	// rank  1 |..||B.||.#||.||..||.||.B||.||..||.||.||..|B.||.||.||.||.B|..||.||B||.||.||>>|
	// rank  2 |.B||..||.#||B||..||B||..||.||.B||B||.||B.|..||.||.||B||..|.B||.||.||.||.||>>|
	// rank  3 |..||..||B#||.||B.||.||B.||B||B.||.||.||.B|..||B||B||.||B.|..||B||.||B||B||>>|
	// legend: # compute  > send  < recv  . wait  B bcast  | barrier  ~ sleep  C checkpoint  R recover
	// rank  compute    comm    wait    idle
	//    0      4.8   171.4    89.9     0.0
	//    1      4.0   166.0    93.6     2.5
	//    2      4.2   187.3    73.6     1.0
	//    3      4.1   187.2    73.7     1.1
	//
	// === Jacobi relaxation, N=96, 100 sweeps (T = 110.7 ms) ===
	// virtual time 0 .. 110.67 ms
	// rank  0 |>>>>.|##.>#<#.>##.B.>#<..B##.>#<#..##.B.>#<..B##.>#<#..>#.B.>##..B##.>#B|..<|
	// rank  1 |....<|#>>#<.>>##>>.>#<>>#.#>>##.>>##>>.>#<>>#.#>>##.<>##>>.>#<>>#.#>>##.|>> |
	// rank  2 |...<.|#>>#>.>>##>>.>#>>##.#>>#>.>>##>>.>#>>##.#>>#<.<>##>>.>#<>##.#>>#<.|>>>|
	// rank  3 |.<...|#.>#...>##.>.>#.>##.#.>#...>##.>.>#.>##.#.>#<.<.##.>.>#<.##.#.>#<.|>>>|
	// legend: # compute  > send  < recv  . wait  B bcast  | barrier  ~ sleep  C checkpoint  R recover
	// rank  compute    comm    wait    idle
	//    0     34.0    46.6    30.1     0.0
	//    1     34.6    54.9    19.1     2.0
	//    2     35.9    56.4    17.8     0.6
	//    3     35.9    31.9    42.3     0.6
	//
	// trace-derived critical overhead To: GE 262.2 ms vs Jacobi 76.7 ms
	// (this To is what Theorem 1's ψ = (t0+To)/(t0'+To') consumes)
}

func printBreakdown(tr *trace.Trace) {
	fmt.Println("rank  compute    comm    wait    idle")
	for _, b := range tr.Breakdowns() {
		fmt.Printf("%4d  %7.1f %7.1f %7.1f %7.1f\n",
			b.Rank, b.ComputeMS, b.CommMS, b.WaitMS, b.IdleMS)
	}
}
