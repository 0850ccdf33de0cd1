package des

// Coroutine is a goroutine that runs only while it holds control. A set of
// coroutines sharing state passes control by explicit hand-off, so exactly
// one of them runs at any instant, and their interleaving is a pure
// function of the hand-offs, never of the Go scheduler. Both cooperative
// substrates are built on it: the kernel's processes and Run here, and the
// ranks of mpi's symbolic transport.
//
// Each hand-off is one send on the receiver's channel: the goroutine that
// gives up control resumes the next one directly, with no scheduler
// goroutine in between.
type Coroutine struct {
	start func()        // body, started by the first hand-off; nil once running
	wake  chan struct{} // hand-offs to a running coroutine
}

// NewCoroutine returns a coroutine that runs body on a goroutine of its own
// from the first hand-off to it. A nil body makes a coroutine of the
// calling goroutine, which is already running: the home that the others
// hand control back to when their work is done.
func NewCoroutine(body func()) *Coroutine {
	return &Coroutine{start: body, wake: make(chan struct{})}
}

// Transfer hands control from the calling coroutine from to next and
// returns once control is back with from; a transfer to from itself
// returns at once. A nil from means the caller is ending: Transfer returns
// as soon as next holds control, and the caller's goroutine must then
// return without touching the shared state.
func Transfer(from, next *Coroutine) {
	if next == from {
		return
	}
	if body := next.start; body != nil {
		next.start = nil
		go body()
	} else {
		next.wake <- struct{}{}
	}
	if from != nil {
		<-from.wake
	}
}
