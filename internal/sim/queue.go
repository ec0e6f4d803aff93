package sim

// Queue is an unbounded FIFO message queue between simulation processes.
// Put never blocks; Get blocks the calling process until an item arrives.
// It is the building block for command queues and scheduler mailboxes.
type Queue[T any] struct {
	env    *Env
	items  []T
	notify *Event
	closed bool
}

// NewQueue creates an empty queue in env.
func NewQueue[T any](env *Env) *Queue[T] {
	return &Queue[T]{env: env}
}

// Put appends an item and wakes one pending Get, if any.
func (q *Queue[T]) Put(item T) {
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	q.items = append(q.items, item)
	if q.notify != nil {
		q.notify.fire()
		q.notify = nil
	}
}

// Close marks the queue closed. Pending and future Gets return the zero
// value and false once the queue drains.
func (q *Queue[T]) Close() {
	q.closed = true
	if q.notify != nil {
		q.notify.fire()
		q.notify = nil
	}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Get removes and returns the oldest item, blocking the calling process
// while the queue is empty. It returns ok=false when the queue is closed
// and drained.
func (q *Queue[T]) Get(p *Proc) (item T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		if q.notify == nil {
			q.notify = q.env.NewEvent()
		}
		p.Wait(q.notify)
	}
	item = q.items[0]
	q.items = q.items[1:]
	return item, true
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (item T, ok bool) {
	if len(q.items) == 0 {
		return item, false
	}
	item = q.items[0]
	q.items = q.items[1:]
	return item, true
}

// Resource is a counted resource (e.g. a bus, a pool of compute units).
// Acquire blocks the calling process until a unit is free.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  []*Event
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: Resource capacity must be >= 1")
	}
	return &Resource{env: env, capacity: capacity}
}

// Acquire takes one unit, blocking the calling process until one is free.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		ev := r.env.NewEvent()
		r.waiters = append(r.waiters, ev)
		p.Wait(ev)
	}
	r.inUse++
}

// Release returns one unit and wakes the oldest waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	r.inUse--
	if len(r.waiters) > 0 {
		ev := r.waiters[0]
		r.waiters = r.waiters[1:]
		ev.fire()
	}
}
