package des

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// FuzzKernelOrder runs random programs of callbacks, Spawn, Delay,
// DelayUntil, Suspend/Wake pairs and deliveries (a callback that wakes
// its process only if it waits by then), and checks the kernel's
// contract on each:
//   - events fire in scheduling order, meaning (time, seq);
//   - each resumed process sees exactly the time it asked for;
//   - Run returns ErrDeadlock exactly when a Suspend has no matching Wake,
//     and unwinds each such process;
//   - no goroutine is left afterwards.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{2, 0, 1, 3, 2, 5, 4, 1, 6, 0, 7, 0, 5, 3})
	f.Add([]byte{1, 6, 0, 6, 0, 3, 0, 0, 4}) // two parks, no wake: deadlock
	f.Add([]byte{0, 3, 9, 3, 9, 0, 3, 2, 2, 2, 114, 4, 3, 1, 7, 7, 1, 6, 0, 2, 16})
	f.Add([]byte{2, 2, 48, 0, 1, 1, 12, 5, 0, 4, 0, 6, 1, 7, 2, 2, 80})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		before := runtime.NumGoroutine()
		r := &orderRun{k: NewKernel(), prog: prog, wakeAt: map[*Proc]fired{}}
		first, _ := r.next()
		for i := 0; i <= int(first%3); i++ {
			r.spawn()
		}
		err := r.k.Run()

		for _, e := range r.errs {
			t.Error(e)
		}
		if stuck := len(r.parked); stuck > 0 {
			if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), fmt.Sprintf("(%d stuck)", stuck)) {
				t.Errorf("%d unmatched Suspends: Run = %v, want ErrDeadlock with %d stuck", stuck, err, stuck)
			}
		} else if err != nil {
			t.Errorf("every Suspend was woken, yet Run = %v", err)
		}
		if r.killed != len(r.parked) || r.finished+r.killed != r.spawned {
			t.Errorf("%d spawned, %d finished, %d killed; want the %d unmatched Suspends killed and the rest finished",
				r.spawned, r.finished, r.killed, len(r.parked))
		}
		if r.callbacks != r.scheduled {
			t.Errorf("%d of %d callbacks fired", r.callbacks, r.scheduled)
		}
		for i := 1; i < len(r.log); i++ {
			a, b := r.log[i-1], r.log[i]
			if b.time < a.time || (b.time == a.time && b.seq <= a.seq) {
				t.Fatalf("event %d (%s at %g, seq %d) fired after %s at %g, seq %d",
					i, b.what, b.time, b.seq, a.what, a.time, a.seq)
			}
		}
		waitGoroutines(t, before)
	})
}

// fired is one event the program saw fire: a callback, or the wake that
// resumed a process. seq is the kernel's sequence number of that event.
type fired struct {
	time float64
	seq  uint64
	what string
}

// orderRun interprets a byte string as a simulation. Every process and
// callback reads its next operation from one shared cursor; the order in
// which they read is itself a function of the kernel's event order.
type orderRun struct {
	k    *Kernel
	prog []byte
	pc   int

	log    []fired
	wakeAt map[*Proc]fired // the wake a process will resume at
	parked []*Proc         // Suspended with no Wake yet, oldest first

	spawned, finished, killed int
	scheduled, callbacks      int
	active                    atomic.Int32 // steps running right now: never above 1
	errs                      []string
}

func (r *orderRun) next() (byte, bool) {
	if r.pc >= len(r.prog) {
		return 0, false
	}
	r.pc++
	return r.prog[r.pc-1], true
}

func (r *orderRun) errorf(format string, args ...interface{}) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// enter and leave bracket each stretch of program code between blocking
// calls; two stretches running at once would mean two goroutines hold
// control.
func (r *orderRun) enter() {
	if r.active.Add(1) != 1 {
		r.errorf("two goroutines hold control at time %g", r.k.now)
	}
}

func (r *orderRun) leave() { r.active.Add(-1) }

// resumed logs a process's resumption and checks its time.
func (r *orderRun) resumed(want fired) {
	r.log = append(r.log, fired{time: r.k.now, seq: want.seq, what: want.what})
	if r.k.now != want.time {
		r.errorf("%s resumed at %g, asked for %g", want.what, r.k.now, want.time)
	}
}

func (r *orderRun) spawn() {
	if r.spawned == 6 {
		return
	}
	r.spawned++
	p := r.k.Spawn(fmt.Sprintf("p%d", r.spawned), r.body)
	r.wakeAt[p] = fired{time: r.k.now, seq: r.k.seq, what: p.Name + " start"}
}

// schedule registers a callback after a delay taken from arg; it may wake
// the oldest parked process, spawn one, and schedule one more callback.
func (r *orderRun) schedule(arg byte) {
	d := float64(arg%5) / 2
	want := fired{time: r.k.now + d, what: fmt.Sprintf("callback %d", arg)}
	r.k.Schedule(d, func() {
		r.enter()
		r.callbacks++
		r.resumed(want)
		if arg&16 != 0 {
			r.wakeParked()
		}
		if arg&32 != 0 {
			r.spawn()
		}
		if arg&64 != 0 {
			r.schedule(arg &^ 64)
		}
		r.leave()
	})
	r.scheduled++
	want.seq = r.k.seq
}

func (r *orderRun) wakeParked() {
	if len(r.parked) == 0 {
		return
	}
	p := r.parked[0]
	r.parked = r.parked[1:]
	r.wakeAt[p] = fired{time: r.k.now, seq: r.k.seq + 1, what: p.Name + " woken"}
	p.Wake()
}

func (r *orderRun) body(p *Proc) {
	finished := false
	defer func() {
		if finished {
			r.finished++
		} else {
			r.killed++ // unwinding with ErrKilled
		}
	}()
	r.enter()
	r.resumed(r.wakeAt[p])
	for steps := 0; steps < 8; steps++ {
		op, ok := r.next()
		if !ok {
			break
		}
		arg, _ := r.next()
		now := r.k.now
		switch op % 8 {
		case 0, 1:
			want := fired{time: now + float64(arg%5)/2, seq: r.k.seq + 1, what: p.Name + " delay"}
			r.leave()
			if op%8 == 0 {
				p.Delay(float64(arg%5) / 2)
			} else {
				// An absolute instant, possibly already past.
				at := float64(arg%9) / 2
				want.time, want.what = max(at, now), p.Name+" delay-until"
				p.DelayUntil(at)
			}
			r.enter()
			r.resumed(want)
		case 2:
			r.schedule(arg)
		case 3:
			r.spawn()
		case 4:
			// A delivery, as mpi's mailboxes make one: a callback lands
			// a value after d and wakes the process only if it waits by
			// then. With bit 2 of arg set, the process first delays past
			// the landing and finds the value without suspending.
			d := float64(arg%4) / 2
			delivered, waiting := false, false
			r.k.Schedule(d, func() {
				delivered = true
				if waiting {
					waiting = false
					r.wakeAt[p] = fired{time: r.k.now, seq: r.k.seq + 1, what: p.Name + " delivered"}
					p.Wake()
				}
			})
			late := arg&4 != 0
			if late {
				r.wakeAt[p] = fired{time: now + 2, seq: r.k.seq + 1, what: p.Name + " delay past delivery"}
			}
			r.leave()
			if late {
				p.Delay(2)
			}
			for !delivered {
				waiting = true
				p.Suspend()
			}
			r.enter()
			r.resumed(r.wakeAt[p])
		case 5:
			// A matched pair: a callback wakes the process later.
			d := float64(arg%4) / 2
			r.k.Schedule(d, func() {
				r.wakeAt[p] = fired{time: r.k.now, seq: r.k.seq + 1, what: p.Name + " woken by callback"}
				p.Wake()
			})
			r.leave()
			p.Suspend()
			r.enter()
			r.resumed(r.wakeAt[p])
		case 6:
			// Matched only if some later step calls wakeParked.
			r.parked = append(r.parked, p)
			r.leave()
			p.Suspend()
			r.enter()
			r.resumed(r.wakeAt[p])
		case 7:
			r.wakeParked()
		}
	}
	r.leave()
	finished = true
}
