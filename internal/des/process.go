package des

import "fmt"

// Proc is a simulation process: a goroutine that advances virtual time via
// Delay and coordinates with other processes through Resources, or through
// Suspend and Wake.
// Delay, DelayUntil and Suspend must be called from the process's own
// goroutine.
//
// A process runs only while it holds control. When it blocks, it runs the
// kernel's event loop itself until the next wake: if that wake is its own
// (a Delay with nothing due in between), it carries on without a goroutine
// switch; otherwise it hands control straight to the woken process and
// waits for its own wake.
type Proc struct {
	Name   string
	k      *Kernel
	co     *Coroutine
	slot   int  // index in k.live while the process is live
	done   bool // fn returned or unwound
	killed bool // Run ended with the process stranded: unwind with ErrKilled
}

// Spawn creates a process running fn, starting at the current virtual time
// (after already-queued events at this time). fn runs in its own goroutine,
// started by the process's first wake, under the kernel's cooperative
// regime.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{Name: name, k: k, slot: len(k.live)}
	p.co = NewCoroutine(func() { p.run(fn) })
	k.live = append(k.live, p)
	p.Wake() // the first wake starts the goroutine
	return p
}

// run is the body of the process's goroutine.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil && r != ErrKilled { //nolint:errorlint // sentinel identity
			// A panicking process would strand the kernel; crash with
			// context instead of a hang.
			panic(fmt.Sprintf("des: process %q panicked: %v", p.Name, r))
		}
		k := p.k
		p.done = true
		last := k.live[len(k.live)-1]
		k.live[p.slot], last.slot = last, p.slot
		k.live = k.live[:len(k.live)-1]
		k.dispatch(nil) // hand control on; this goroutine then ends
	}()
	if !p.killed {
		fn(p)
	}
}

// check panics if the process may not block: it has finished, or Run has
// killed it. op names the blocking call.
func (p *Proc) check(op string) {
	if p.killed {
		panic(ErrKilled)
	}
	if p.done {
		panic("des: " + op + " on finished process")
	}
}

// wait gives up control until the process's next wake, running the event
// loop on this goroutine meanwhile.
func (p *Proc) wait() {
	p.k.dispatch(p.co)
	if p.killed {
		panic(ErrKilled)
	}
}

// Delay advances the process's virtual time by dt (>= 0), letting other
// events run in between.
func (p *Proc) Delay(dt float64) {
	p.check("Delay")
	if dt < 0 {
		dt = 0
	}
	p.k.push(p.k.now+dt, nil, p)
	p.wait()
}

// DelayUntil advances the process's virtual time to exactly t, letting
// other events run in between; for t <= Now() it resumes at Now(), after
// the events already due then. Delay(t-Now()) would compute now + (t - now),
// which in floating point can land one ulp off t; DelayUntil schedules the
// absolute instant, so deadline waits stay bit-identical to backends that
// assign clocks directly.
func (p *Proc) DelayUntil(t float64) {
	p.check("DelayUntil")
	if t < p.k.now {
		t = p.k.now
	}
	p.k.push(t, nil, p)
	p.wait()
}

// Suspend parks the process indefinitely; some other process or event must
// Wake it, or the kernel will report deadlock. It is the building block for
// synchronization (Resource here; mailboxes and barriers outside this
// package).
func (p *Proc) Suspend() {
	p.check("Suspend")
	p.wait()
}

// Wake schedules a Suspended process to resume at the current virtual time.
// It may be called from kernel context (an event callback) or from another
// process. Waking a process that is not suspended corrupts the handshake;
// callers must pair Wake with exactly one outstanding Suspend.
func (p *Proc) Wake() { p.k.push(p.k.now, nil, p) }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.k.Now() }
