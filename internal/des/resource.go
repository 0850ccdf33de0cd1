package des

// Resource is a FIFO resource with integer capacity, e.g. a shared Ethernet
// segment with capacity 1. Acquire blocks the calling process until a unit
// is available; Release hands the unit to the longest-waiting process.
// It records utilization and queueing statistics.
type Resource struct {
	Name     string
	k        *Kernel
	capacity int
	inUse    int
	waiters  []waiterEntry

	// Statistics.
	acquires   int
	totalWait  float64 // summed time spent queued
	busyTime   float64 // integral of inUse over time / capacity
	lastChange float64
}

type waiterEntry struct {
	p       *Proc
	arrived float64
}

// NewResource creates a resource with the given capacity (>= 1).
func (k *Kernel) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("des: resource capacity must be >= 1")
	}
	return &Resource{Name: name, k: k, capacity: capacity}
}

func (r *Resource) accumulate() {
	now := r.k.Now()
	r.busyTime += float64(r.inUse) / float64(r.capacity) * (now - r.lastChange)
	r.lastChange = now
}

// Acquire obtains one unit of the resource, blocking p in FIFO order if none
// is free.
func (r *Resource) Acquire(p *Proc) {
	r.acquires++
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.accumulate()
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, waiterEntry{p: p, arrived: r.k.Now()})
	p.Suspend()
	// By the time we resume, Release has already transferred the unit to us
	// and recorded our wait time.
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
		r.waiters[len(r.waiters)-1] = waiterEntry{}
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.totalWait += r.k.Now() - head.arrived
		// inUse unchanged: unit transfers to head.
		head.p.Wake()
		return
	}
	r.accumulate()
	r.inUse--
}

// Use runs fn while holding one unit of the resource for duration dt: it
// acquires, delays dt, then releases. This is the common "occupy the wire
// for the transfer time" pattern.
func (r *Resource) Use(p *Proc, dt float64) {
	r.Acquire(p)
	p.Delay(dt)
	r.Release()
}

// Stats reports resource usage accumulated so far.
type ResourceStats struct {
	Acquires    int
	AvgWait     float64 // mean queueing delay per acquire
	Utilization float64 // time-average fraction of capacity in use
}

// Stats returns statistics as of the current virtual time.
func (r *Resource) Stats() ResourceStats {
	r.accumulate()
	s := ResourceStats{Acquires: r.acquires}
	if r.acquires > 0 {
		s.AvgWait = r.totalWait / float64(r.acquires)
	}
	if now := r.k.Now(); now > 0 {
		s.Utilization = r.busyTime / now
	}
	return s
}

// Queue is an unbounded FIFO message queue between processes, with
// store-and-forward delivery: Put schedules the item to become visible
// after a delay, Get blocks until an item is available. It is the primitive
// under simulated message channels.
type Queue struct {
	Name    string
	k       *Kernel
	items   []interface{}
	getters []*Proc
}

// NewQueue creates an empty queue.
func (k *Kernel) NewQueue(name string) *Queue {
	return &Queue{Name: name, k: k}
}

// Put delivers item after delay time units. It never blocks the caller and
// may be called from kernel or process context.
func (q *Queue) Put(item interface{}, delay float64) {
	q.k.Schedule(delay, func() {
		q.items = append(q.items, item)
		if len(q.getters) > 0 {
			g := q.getters[0]
			copy(q.getters, q.getters[1:])
			q.getters = q.getters[:len(q.getters)-1]
			g.Wake()
		}
	})
}

// Get removes and returns the oldest available item, blocking p until one
// arrives.
func (q *Queue) Get(p *Proc) interface{} {
	for len(q.items) == 0 {
		q.getters = append(q.getters, p)
		p.Suspend()
	}
	item := q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return item
}

// Len returns the number of currently visible items.
func (q *Queue) Len() int { return len(q.items) }
