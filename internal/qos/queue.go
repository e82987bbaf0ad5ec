package qos

import (
	"errors"
	"sync"
)

// Push and Pop fail with these.
var (
	ErrQueueClosed = errors.New("qos: queue closed")
	ErrQueueFull   = errors.New("qos: queue full")
)

// FIFO is an unbounded first-in first-out list, empty at its zero value and
// not safe for concurrent use: one class of a Queue, or txn.IdemTable's records.
type FIFO[T any] struct {
	items []T // the live items are items[head:]
	head  int
}

// Push appends item at the tail.
func (f *FIFO[T]) Push(item T) { f.items = append(f.items, item) }

// Len returns the number of items held.
func (f *FIFO[T]) Len() int { return len(f.items) - f.head }

// Peek returns the oldest item of a non-empty FIFO without removing it.
func (f *FIFO[T]) Peek() T { return f.items[f.head] }

// Pop removes the oldest item of a non-empty FIFO. A dead prefix as long as
// the live tail is copied over (amortised constant): the array never grows.
func (f *FIFO[T]) Pop() T {
	var zero T
	item := f.items[f.head]
	f.items[f.head] = zero
	if f.head++; f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	return item
}

// Queue is a bounded strict-priority queue: Pop always returns the oldest
// item of the highest-priority (lowest-numbered) non-empty class. Brokers
// use it to "reshuffle the queued requests and schedule according to their
// priorities" (paper §III, QoS awareness). One mutex guards everything and
// every operation is one critical section that runs no caller code: strict
// priority, FIFO within a class and the exact capacity bound hold by
// construction. Safe for concurrent producers and consumers. Use NewQueue.
type Queue[T any] struct {
	mu             sync.Mutex
	wake           sync.Cond // on mu: Push signals, Close broadcasts
	classes        []FIFO[T] // class c at index c-1; grows to the highest class pushed
	size, capacity int
	closed         bool
}

// NewQueue creates a queue holding at most capacity (> 0) items in all.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("qos: queue capacity must be positive")
	}
	q := &Queue[T]{capacity: capacity}
	q.wake.L = &q.mu
	return q
}

// take removes the head of the highest-priority non-empty class, with q.mu
// held; ok is false when the queue is empty.
func (q *Queue[T]) take() (item T, c Class, ok bool) {
	for i := range q.classes {
		if f := &q.classes[i]; f.Len() > 0 {
			q.size--
			return f.Pop(), Class(i + 1), true
		}
	}
	return item, 0, false
}

// Push enqueues item in class c, which must be Valid. A full queue fails
// with ErrQueueFull, a closed one with ErrQueueClosed.
func (q *Queue[T]) Push(c Class, item T) error {
	if !c.Valid() {
		return errors.New("qos: invalid class")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.closed:
		return ErrQueueClosed
	case q.size >= q.capacity:
		return ErrQueueFull
	}
	for len(q.classes) < int(c) {
		q.classes = append(q.classes, FIFO[T]{})
	}
	q.classes[c-1].Push(item)
	q.size++
	q.wake.Signal()
	return nil
}

// Pop blocks until it can return the oldest item of the highest-priority
// non-empty class. After Close it drains the queue, then fails.
func (q *Queue[T]) Pop() (T, Class, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.wake.Wait()
	}
	item, c, ok := q.take()
	if !ok {
		return item, 0, ErrQueueClosed
	}
	return item, c, nil
}

// TryPop is Pop without the wait: ok=false means nothing was queued.
func (q *Queue[T]) TryPop() (item T, c Class, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take()
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
