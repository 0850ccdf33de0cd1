package mpi

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

func benchWorld(b *testing.B, p int) (*cluster.Cluster, simnet.CostModel) {
	b.Helper()
	nodes := make([]cluster.Node, p)
	for i := range nodes {
		nodes[i] = cluster.Node{Name: fmt.Sprintf("n%d", i), Class: "B", SpeedMflops: 50, MemMB: 256}
	}
	cl, err := cluster.New("bench", nodes...)
	if err != nil {
		b.Fatal(err)
	}
	m, err := simnet.NewParamModel("bench", simnet.Sunwulf100())
	if err != nil {
		b.Fatal(err)
	}
	return cl, m
}

func benchCollective(b *testing.B, engine Engine, prog func(c *Comm, iters int) error) {
	cl, m := benchWorld(b, 8)
	iters := b.N
	b.ResetTimer()
	if _, err := Run(context.Background(), cl, m, Options{Engine: engine}, func(c *Comm) error {
		return prog(c, iters)
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBarrierLive(b *testing.B) {
	benchCollective(b, EngineLive, func(c *Comm, iters int) error {
		for i := 0; i < iters; i++ {
			c.Barrier()
		}
		return nil
	})
}

func BenchmarkBarrierDES(b *testing.B) {
	benchCollective(b, EngineDES, func(c *Comm, iters int) error {
		for i := 0; i < iters; i++ {
			c.Barrier()
		}
		return nil
	})
}

func BenchmarkBcast1KiBLive(b *testing.B) {
	payload := make([]float64, 128)
	benchCollective(b, EngineLive, func(c *Comm, iters int) error {
		for i := 0; i < iters; i++ {
			var in []float64
			if c.Rank() == 0 {
				in = payload
			}
			c.Bcast(0, in)
		}
		return nil
	})
}

func BenchmarkBcast1KiBDES(b *testing.B) {
	payload := make([]float64, 128)
	benchCollective(b, EngineDES, func(c *Comm, iters int) error {
		for i := 0; i < iters; i++ {
			var in []float64
			if c.Rank() == 0 {
				in = payload
			}
			c.Bcast(0, in)
		}
		return nil
	})
}

func BenchmarkPingPongLive(b *testing.B) {
	cl, m := benchWorld(b, 2)
	payload := make([]float64, 128)
	iters := b.N
	b.ResetTimer()
	if _, err := Run(context.Background(), cl, m, Options{Engine: EngineLive}, func(c *Comm) error {
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, payload)
				c.Recv(1, 1)
			} else {
				c.Recv(0, 0)
				c.Send(0, 1, payload)
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

// benchTransports names the engine selector of each built-in transport,
// so the same program can be benchmarked on all three (sub-benchmark
// names: /live, /des, /symbolic).
var benchTransports = map[string]Engine{
	"live":     EngineLive,
	"des":      EngineDES,
	"symbolic": EngineSymbolic,
}

// BenchmarkTransportPingPong measures the per-message substrate cost —
// Post/Take/clock bookkeeping with no collective machinery — on every
// built-in transport running the identical program.
func BenchmarkTransportPingPong(b *testing.B) {
	cl, m := benchWorld(b, 2)
	payload := make([]float64, 128)
	for name, eng := range benchTransports {
		b.Run(name, func(b *testing.B) {
			iters := b.N
			b.ResetTimer()
			if _, err := Run(context.Background(), cl, m, Options{Engine: eng}, func(c *Comm) error {
				for i := 0; i < iters; i++ {
					if c.Rank() == 0 {
						c.Send(1, 0, payload)
						c.Recv(1, 1)
					} else {
						c.Recv(0, 0)
						c.Send(0, 1, payload)
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTransportBarrier measures the Park/Unpark path of the shared
// max-reduction barrier on every transport.
func BenchmarkTransportBarrier(b *testing.B) {
	cl, m := benchWorld(b, 8)
	for name, eng := range benchTransports {
		b.Run(name, func(b *testing.B) {
			iters := b.N
			b.ResetTimer()
			if _, err := Run(context.Background(), cl, m, Options{Engine: eng}, func(c *Comm) error {
				for i := 0; i < iters; i++ {
					c.Barrier()
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkAllreduceLive(b *testing.B) {
	benchCollective(b, EngineLive, func(c *Comm, iters int) error {
		for i := 0; i < iters; i++ {
			c.Allreduce(float64(c.Rank()), OpSum)
		}
		return nil
	})
}

// BenchmarkLiveRun measures whole live-engine runs of a single Barrier:
// transport construction, rank start-up and teardown, the per-run cost
// the fixed-world Benchmark*Live benchmarks amortize away.
func BenchmarkLiveRun(b *testing.B) {
	prog := func(c *Comm) error {
		c.Barrier()
		return nil
	}
	for _, p := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			cl, m := benchWorld(b, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), cl, m, Options{Engine: EngineLive}, prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
