package qos

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// model is the reference the queue is checked against: one slice kept sorted
// by class, arrival order within a class, and the rules spelled out directly.
type model struct {
	items    []mitem
	capacity int
	closed   bool
}

type mitem struct {
	id int
	c  Class
}

func (m *model) push(it mitem) error {
	if m.closed {
		return ErrQueueClosed
	}
	if len(m.items) >= m.capacity {
		return ErrQueueFull
	}
	i, _ := slices.BinarySearchFunc(m.items, it.c+1, func(e mitem, c Class) int { return int(e.c - c) })
	m.items = slices.Insert(m.items, i, it)
	return nil
}

func (m *model) pop() (it mitem, ok bool) {
	if len(m.items) == 0 {
		return mitem{}, false
	}
	it, m.items = m.items[0], m.items[1:]
	return it, true
}

// TestQueueAgainstModel drives seeded random schedules of Push, TryPop and
// Close through the queue and the model side by side (ROADMAP item 4: strict
// priority and exactly-one-disposition as checked invariants).
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
	m := &model{capacity: 1 + rng.Intn(8)}
	q := NewQueue[int](m.capacity)

	nextID := 0
	randClass := func() Class { return Class(1 + rng.Intn(classes)) }

	// Every pushed item leaves exactly once: popped, or drained after Close.
	state := map[int]string{}
	settle := func(step int) {
		if q.Len() != len(m.items) {
			fail(step, "Len = %d, model %d", q.Len(), len(m.items))
		}
	}
	pop := func(step int) bool {
		want, wantOK := m.pop()
		id, c, ok := q.TryPop()
		if ok != wantOK || ok && (id != want.id || c != want.c) {
			fail(step, "TryPop = (%d, %v, %v), model (%d, %v, %v)", id, c, ok, want.id, want.c, wantOK)
		}
		for _, it := range m.items { // what stayed behind
			if ok && it.c < c {
				fail(step, "class %v returned while class %v item %d is queued", c, it.c, it.id)
			}
		}
		if ok {
			if state[id] != "queued" {
				fail(step, "item %d popped while %q", id, state[id])
			}
			state[id] = "popped"
		}
		settle(step)
		return ok
	}

	steps := 100 + rng.Intn(200)
	closeAt := rng.Intn(3 * steps) // one schedule in three closes early and runs on
	for step := 0; step < steps; step++ {
		if step == closeAt {
			m.closed = true
			q.Close()
		}
		switch op := rng.Intn(80); {
		case op < 45:
			nextID++
			it := mitem{id: nextID, c: randClass()}
			qerr, merr := q.Push(it.c, it.id), m.push(it)
			if !errors.Is(qerr, merr) {
				fail(step, "Push(%v, %d) = %v, model %v", it.c, it.id, qerr, merr)
			}
			if qerr == nil {
				state[it.id] = "queued"
			}
			settle(step)
		case op < 48: // from outside: the wire carries any byte
			c := []Class{0, -1, MaxClass + 1}[rng.Intn(3)]
			if err := q.Push(c, -1); err == nil {
				fail(step, "Push(%d) accepted", int(c))
			}
			settle(step)
		default:
			pop(step)
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
