package des

// Resource is a FIFO resource with integer capacity, e.g. a shared Ethernet
// segment with capacity 1. Acquire blocks the calling process until a unit
// is available; Release hands the unit to the longest-waiting process.
type Resource struct {
	Name     string
	capacity int
	inUse    int
	waiters  []*Proc
}

// NewResource creates a resource with the given capacity (>= 1).
func (k *Kernel) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("des: resource capacity must be >= 1")
	}
	return &Resource{Name: name, capacity: capacity}
}

// Acquire obtains one unit of the resource, blocking p in FIFO order if none
// is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.Suspend()
	// By the time we resume, Release has already transferred the unit to us.
}

// Release returns one unit. If processes are queued, the unit transfers
// directly to the head of the queue.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("des: Release without matching Acquire on " + r.Name)
	}
	if len(r.waiters) > 0 {
		head := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = nil
		r.waiters = r.waiters[:len(r.waiters)-1]
		// inUse unchanged: unit transfers to head.
		head.Wake()
		return
	}
	r.inUse--
}

// Use holds one unit of the resource for duration dt: it acquires, delays
// dt, then releases. This is the common "occupy the wire
// for the transfer time" pattern.
func (r *Resource) Use(p *Proc, dt float64) {
	r.Acquire(p)
	p.Delay(dt)
	r.Release()
}
