package qos

import (
	"errors"
	"sync"
	"time"
)

// Push and Pop fail with these.
var (
	ErrQueueClosed = errors.New("qos: queue closed")
	ErrQueueFull   = errors.New("qos: queue full")
)

// entry is a queued item and its enqueue time, the start of its sojourn.
type entry[T any] struct {
	item T
	at   time.Time
}

// fifo is one class's queue: the live items are items[head:].
type fifo[T any] struct {
	items []entry[T]
	head  int
}

// pop removes the oldest entry of a non-empty fifo. A dead prefix as long as
// the live tail is copied over (amortised constant): the array never grows.
func (f *fifo[T]) pop() entry[T] {
	e := f.items[f.head]
	f.items[f.head] = entry[T]{}
	if f.head++; f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	return e
}

// evicted is an expired item on its way to the evict callback.
type evicted[T any] struct {
	item T
	c    Class
	wait time.Duration
}

// Queue is a bounded strict-priority queue: Pop always returns the oldest
// item of the highest-priority (lowest-numbered) non-empty class. Brokers
// use it to "reshuffle the queued requests and schedule according to their
// priorities" (paper §III, QoS awareness). With SetSojourn it also evicts
// items that outwait a per-class budget (CoDel-style): under overload a
// low-priority request is answered early with the paper's low-fidelity busy
// message instead of rotting in queue past its deadline. One mutex guards
// everything and every operation is one critical section: strict priority,
// FIFO within a class and the exact capacity bound hold by construction.
// Safe for concurrent producers and consumers. Use NewQueue.
type Queue[T any] struct {
	mu             sync.Mutex
	wake           sync.Cond // on mu: Push signals, Close broadcasts
	classes        []fifo[T] // class c at index c-1; grows to the highest class pushed
	size, capacity int
	closed         bool
	now            func() time.Time
	budget         func(Class) time.Duration // nil: no sojourn eviction
	evict          func(item T, c Class, wait time.Duration)
}

// NewQueue creates a queue holding at most capacity (> 0) items in all.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("qos: queue capacity must be positive")
	}
	q := &Queue[T]{capacity: capacity, now: time.Now}
	q.wake.L = &q.mu
	return q
}

// SetClock overrides the time source (tests); now runs under the queue's lock.
func (q *Queue[T]) SetClock(now func() time.Time) {
	q.mu.Lock()
	q.now = now
	q.mu.Unlock()
}

// SetSojourn enables sojourn-time eviction. budget returns the maximum queue
// wait for a class (≤ 0: never evicted); it runs under the queue's lock and
// must not call back. evict (not nil) receives each expired item and its wait,
// on Push (making room in a full queue) and on every Pop and TryPop, always
// with the lock released: it may re-enter the queue or take caller locks.
func (q *Queue[T]) SetSojourn(budget func(Class) time.Duration, evict func(item T, c Class, wait time.Duration)) {
	q.mu.Lock()
	q.budget, q.evict = budget, evict
	q.mu.Unlock()
}

// take is the queue's one walk, in priority order with q.mu held. Every item
// that outwaited its class's budget is removed into expired (within a class
// they are a prefix); with pop set, the first live head is removed as well.
func (q *Queue[T]) take(pop bool) (item T, c Class, ok bool, expired []evicted[T]) {
	var now time.Time
	if q.budget != nil {
		now = q.now()
	}
	for i := range q.classes {
		f, class := &q.classes[i], Class(i+1)
		if q.budget != nil && f.head < len(f.items) {
			b := q.budget(class)
			for b > 0 && f.head < len(f.items) && now.Sub(f.items[f.head].at) > b {
				e := f.pop()
				expired = append(expired, evicted[T]{e.item, class, now.Sub(e.at)})
			}
		}
		if pop && !ok && f.head < len(f.items) {
			item, c, ok = f.pop().item, class, true
			q.size--
		}
	}
	q.size -= len(expired)
	return item, c, ok, expired
}

// unlock releases q.mu, then hands the expired items to the evict callback.
func (q *Queue[T]) unlock(expired []evicted[T]) {
	evict := q.evict
	q.mu.Unlock()
	for _, e := range expired {
		evict(e.item, e.c, e.wait)
	}
}

// Push enqueues item in class c, which must be Valid. A queue still full once
// its expired items are shed fails with ErrQueueFull, a closed one with ErrQueueClosed.
func (q *Queue[T]) Push(c Class, item T) (err error) {
	if !c.Valid() {
		return errors.New("qos: invalid class")
	}
	q.mu.Lock()
	var expired []evicted[T]
	if q.size >= q.capacity && !q.closed {
		_, _, _, expired = q.take(false)
	}
	switch {
	case q.closed:
		err = ErrQueueClosed
	case q.size >= q.capacity:
		err = ErrQueueFull
	default:
		for len(q.classes) < int(c) {
			q.classes = append(q.classes, fifo[T]{})
		}
		f := &q.classes[c-1]
		f.items = append(f.items, entry[T]{item, q.now()})
		q.size++
		q.wake.Signal()
	}
	q.unlock(expired)
	return err
}

// Pop blocks until it can return the oldest item of the highest-priority
// non-empty class. After Close it drains the queue, then fails.
func (q *Queue[T]) Pop() (T, Class, error) {
	for {
		q.mu.Lock()
		for q.size == 0 && !q.closed {
			q.wake.Wait()
		}
		item, c, ok, expired := q.take(true)
		closed := q.closed
		q.unlock(expired)
		if ok {
			return item, c, nil
		} else if closed {
			return item, 0, ErrQueueClosed
		} // else everything queued had expired: wait again
	}
}

// TryPop is Pop without the wait: ok=false means no live item was queued.
func (q *Queue[T]) TryPop() (item T, c Class, ok bool) {
	q.mu.Lock()
	item, c, ok, expired := q.take(true)
	q.unlock(expired)
	return item, c, ok
}

// Len returns the total number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Close fails every later Push and, once the queue is drained, every Pop.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.wake.Broadcast()
	q.mu.Unlock()
}
