package qos

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// model is the reference the queue is checked against: one slice kept sorted
// by class, arrival order within a class, and the rules spelled out directly.
type model struct {
	items    []mitem
	capacity int
	closed   bool
	budget   func(Class) time.Duration // nil: nothing expires
}

type mitem struct {
	id int
	c  Class
	at time.Time
}

func (m *model) expired(it mitem, now time.Time) bool {
	return m.budget != nil && m.budget(it.c) > 0 && now.Sub(it.at) > m.budget(it.c)
}

// expire removes and returns every expired item, in queue order.
func (m *model) expire(now time.Time) (out []mitem) {
	m.items = slices.DeleteFunc(m.items, func(it mitem) bool {
		if m.expired(it, now) {
			out = append(out, it)
			return true
		}
		return false
	})
	return out
}

func (m *model) push(it mitem) (out []mitem, err error) {
	if m.closed {
		return nil, ErrQueueClosed
	}
	if len(m.items) >= m.capacity {
		if out = m.expire(it.at); len(m.items) >= m.capacity {
			return out, ErrQueueFull
		}
	}
	i, _ := slices.BinarySearchFunc(m.items, it.c+1, func(e mitem, c Class) int { return int(e.c - c) })
	m.items = slices.Insert(m.items, i, it)
	return out, nil
}

func (m *model) pop(now time.Time) (it mitem, ok bool, out []mitem) {
	if out = m.expire(now); len(m.items) == 0 {
		return mitem{}, false, out
	}
	it, m.items = m.items[0], m.items[1:]
	return it, true, out
}

// eviction is one call of the queue's evict callback, and the Push the
// callback made from inside it, if it made one.
type eviction struct {
	id      int
	c       Class
	wait    time.Duration
	repush  *mitem
	pushErr error
}

// TestQueueAgainstModel drives seeded random schedules of Push, TryPop, clock
// advance and Close through the queue and the model side by side (ROADMAP
// item 4: strict priority and exactly-one-disposition as checked invariants).
func TestQueueAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		runSchedule(t, seed)
	}
}

func runSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	classes := 1 + rng.Intn(5)
	now := time.Unix(1000, 0)
	m := &model{capacity: 1 + rng.Intn(8)}
	q := NewQueue[int](m.capacity)
	q.SetClock(func() time.Time { return now })

	nextID := 0
	randClass := func() Class { return Class(1 + rng.Intn(classes)) }
	var evictions []eviction
	if rng.Intn(2) == 0 {
		// Lower classes get shorter budgets; on some seeds class 1 has none.
		unbudgeted := Class(rng.Intn(2))
		m.budget = func(c Class) time.Duration {
			if c == unbudgeted {
				return 0
			}
			return time.Duration(classes-int(c)+1) * 10 * time.Millisecond
		}
		q.SetSojourn(m.budget, func(id int, c Class, wait time.Duration) {
			// The callback runs with no queue lock held: both calls return.
			e := eviction{id: id, c: c, wait: wait}
			_ = q.Len()
			if rng.Intn(3) == 0 {
				nextID++
				e.repush = &mitem{id: nextID, c: randClass(), at: now}
				e.pushErr = q.Push(e.repush.c, e.repush.id)
			}
			evictions = append(evictions, e)
		})
	}

	// Every pushed item leaves exactly once: popped, evicted, or drained.
	state := map[int]string{}
	accept := func(step int, it mitem, qerr, merr error) {
		if !errors.Is(qerr, merr) {
			fail(step, "Push(%v, %d) = %v, model %v", it.c, it.id, qerr, merr)
		}
		if qerr == nil {
			state[it.id] = "queued"
		}
	}
	leave := func(step, id int, how string) {
		if state[id] != "queued" {
			fail(step, "item %d %s while %q", id, how, state[id])
		}
		state[id] = how
	}
	// settle matches the step's evict callbacks against the model's expiries,
	// replaying each callback's own Push on the model as it goes.
	settle := func(step int, want []mitem) {
		for i := 0; i < len(want); i++ {
			if i >= len(evictions) {
				fail(step, "model evicted %d items, queue %d", len(want), len(evictions))
			}
			w, e := want[i], evictions[i]
			if e.id != w.id || e.c != w.c || e.wait != now.Sub(w.at) {
				fail(step, "eviction %d = %+v, model %+v", i, e, w)
			}
			leave(step, e.id, "evicted")
			if e.repush != nil {
				more, merr := m.push(*e.repush)
				accept(step, *e.repush, e.pushErr, merr)
				want = append(want, more...)
			}
		}
		if len(evictions) != len(want) {
			fail(step, "queue evicted %d items, model %d", len(evictions), len(want))
		}
		evictions = evictions[:0]
		if q.Len() != len(m.items) {
			fail(step, "Len = %d, model %d", q.Len(), len(m.items))
		}
	}
	pop := func(step int) bool {
		want, wantOK, expired := m.pop(now)
		id, c, ok := q.TryPop()
		if ok != wantOK || ok && (id != want.id || c != want.c) {
			fail(step, "TryPop = (%d, %v, %v), model (%d, %v, %v)", id, c, ok, want.id, want.c, wantOK)
		}
		for _, it := range m.items { // what stayed behind
			if ok && it.c < c && !m.expired(it, now) {
				fail(step, "class %v returned while unexpired class %v item %d is queued", c, it.c, it.id)
			}
		}
		if ok {
			leave(step, id, "popped")
		}
		settle(step, expired)
		return ok
	}

	steps := 100 + rng.Intn(200)
	closeAt := rng.Intn(3 * steps) // one schedule in three closes early and runs on
	for step := 0; step < steps; step++ {
		if step == closeAt {
			m.closed = true
			q.Close()
		}
		switch op := rng.Intn(100); {
		case op < 45:
			nextID++
			it := mitem{id: nextID, c: randClass(), at: now}
			expired, merr := m.push(it)
			accept(step, it, q.Push(it.c, it.id), merr)
			settle(step, expired)
		case op < 48: // from outside: the wire carries any byte
			c := []Class{0, -1, MaxClass + 1}[rng.Intn(3)]
			if err := q.Push(c, -1); err == nil {
				fail(step, "Push(%d) accepted", int(c))
			}
			settle(step, nil)
		case op < 80:
			pop(step)
		default:
			now = now.Add(time.Duration(rng.Intn(25)) * time.Millisecond)
		}
	}
	m.closed = true
	q.Close()
	for step := steps; pop(step); step++ {
	}
	if _, _, err := q.Pop(); !errors.Is(err, ErrQueueClosed) {
		fail(steps, "Pop on a closed, drained queue = %v", err)
	}
	for id, s := range state {
		if s == "queued" {
			fail(steps, "item %d never left the queue", id)
		}
	}
}
