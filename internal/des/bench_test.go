package des

import "testing"

// BenchmarkEventThroughput measures raw event dispatch rate.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel()
	for i := 0; i < b.N; i++ {
		k.Schedule(float64(i), func() {})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessSwitch measures one process delaying b.N times. Its wake
// is always the next event, so this is the no-switch path: Delay runs the
// event loop on the process's own goroutine and returns without handing
// control anywhere. BenchmarkProcessHandoff measures the switch.
func BenchmarkProcessSwitch(b *testing.B) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessHandoff measures the hand-off between process
// goroutines: two processes offset by half a step, so every Delay passes
// control straight to the other process's goroutine.
func BenchmarkProcessHandoff(b *testing.B) {
	k := NewKernel()
	for i, offset := range []float64{0, 0.5} {
		n := (b.N + 1 - i) / 2 // b.N Delays between the two
		offset := offset
		k.Spawn("p", func(p *Proc) {
			p.Delay(offset)
			for j := 0; j < n; j++ {
				p.Delay(1)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceContention measures queued acquire/release cycles over
// a unit-capacity resource shared by 8 processes.
func BenchmarkResourceContention(b *testing.B) {
	k := NewKernel()
	r := k.NewResource("wire", 1)
	per := b.N/8 + 1
	for w := 0; w < 8; w++ {
		k.Spawn("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Use(p, 0.001)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
