package txn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// trackerModel is the reference the tracker is checked against: active
// transactions with their undo stacks, the lazy sweep's schedule, and the
// totals, with the rules spelled out directly.
type trackerModel struct {
	ttl                  time.Duration
	lastSweep            time.Time
	active               map[string]*State
	comps                map[string][]int // registered compensation ids, in order
	completed, aborted   int
	abandoned, run, fail int
	failing              map[int]bool // compensations that return an error
	swept                []string     // abandoned in the current step
}

// abort removes id and returns its compensations in the order they must run.
func (m *trackerModel) abort(id string) []int {
	want := slices.Clone(m.comps[id])
	slices.Reverse(want)
	delete(m.active, id)
	delete(m.comps, id)
	m.aborted++
	m.run += len(want)
	for _, c := range want {
		if m.failing[c] {
			m.fail++
		}
	}
	return want
}

// sweep aborts every transaction idle past the TTL.
func (m *trackerModel) sweep(now time.Time) (runs map[string][]int) {
	m.lastSweep = now
	runs = map[string][]int{}
	for id, s := range m.active {
		if now.Sub(s.LastSeen) > m.ttl {
			runs[id] = m.abort(id)
			m.abandoned++
			m.swept = append(m.swept, id)
		}
	}
	return runs
}

// TestTrackerAgainstModel drives seeded schedules of Observe,
// RegisterCompensation, Complete, Abort, Sweep, Snapshot and clock advances
// through a tracker with a TTL and the model side by side. Each aborted or
// abandoned transaction runs its compensations exactly once, in reverse
// order; a completed one runs none.
func TestTrackerAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		runTrackerSchedule(t, seed)
	}
}

func runTrackerSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	now := time.Unix(1000, 0)
	m := &trackerModel{ttl: 10 * time.Second, active: map[string]*State{},
		comps: map[string][]int{}, failing: map[int]bool{}}
	tr := NewTracker()
	tr.SetClock(func() time.Time { return now })
	tr.SetTTL(m.ttl)
	var abandoned []string
	tr.OnAbandon(func(s State) { abandoned = append(abandoned, s.ID) })

	ids := make([]string, 2+rng.Intn(5))
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
	}
	var ran []int       // compensation ids, in the order they ran
	owner := []string{} // compensation id → its transaction
	nextComp := func(id string) (int, CompensationFunc) {
		c := len(owner)
		owner = append(owner, id)
		m.failing[c] = rng.Intn(4) == 0
		return c, func(context.Context) error {
			ran = append(ran, c)
			if m.failing[c] {
				return errors.New("undo failed")
			}
			return nil
		}
	}
	// checkRuns compares what ran during one step with the model's runs: each
	// transaction's compensations back to back, in reverse order.
	checkRuns := func(got []int, want map[string][]int) {
		for len(got) > 0 {
			id := owner[got[0]]
			w, ok := want[id]
			if !ok || len(got) < len(w) || !slices.Equal(got[:len(w)], w) {
				fail("ran %v, model runs %v", got, want)
			}
			got = got[len(w):]
			delete(want, id)
		}
		for id, w := range want {
			if len(w) > 0 {
				fail("%s: compensations %v never ran", id, w)
			}
		}
	}
	steps := 100 + rng.Intn(200)
	for ; step < steps; step++ {
		start := len(ran)
		m.swept, abandoned = nil, nil
		runs := map[string][]int{}
		id := ids[rng.Intn(len(ids))]
		switch op := rng.Intn(100); {
		case op < 30:
			st := 1 + rng.Intn(4)
			if m.ttl > 0 && now.Sub(m.lastSweep) > m.ttl/4 {
				runs = m.sweep(now)
			}
			s, ok := m.active[id]
			if !ok {
				s = &State{ID: id, Step: st, Started: now, LastSeen: now}
				m.active[id] = s
			}
			var want State
			var wantErr error
			if st < s.Step {
				wantErr = ErrBadStep
			} else {
				s.Step, s.LastSeen = st, now
				s.Accesses++
				want = *s
			}
			got, err := tr.Observe(id, st)
			if got != want || !errors.Is(err, wantErr) {
				fail("Observe(%s, %d) = (%+v, %v), model (%+v, %v)", id, st, got, err, want, wantErr)
			}
		case op < 50:
			c, fn := nextComp(id)
			var wantErr error
			if s, ok := m.active[id]; ok {
				m.comps[id] = append(m.comps[id], c)
				s.Compensations++
				s.LastSeen = now
			} else {
				wantErr = ErrUnknownTxn
			}
			if err := tr.RegisterCompensation(id, 1, "undo", fn); !errors.Is(err, wantErr) {
				fail("RegisterCompensation(%s) = %v, model %v", id, err, wantErr)
			}
		case op < 60:
			var wantErr error
			if _, ok := m.active[id]; ok {
				delete(m.active, id)
				delete(m.comps, id) // discarded: the saga committed
				m.completed++
			} else {
				wantErr = ErrUnknownTxn
			}
			if err := tr.Complete(id); !errors.Is(err, wantErr) {
				fail("Complete(%s) = %v, model %v", id, err, wantErr)
			}
		case op < 70:
			var wantErr error
			if _, ok := m.active[id]; ok {
				runs[id] = m.abort(id)
			} else {
				wantErr = ErrUnknownTxn
			}
			if err := tr.Abort(id); !errors.Is(err, wantErr) {
				fail("Abort(%s) = %v, model %v", id, err, wantErr)
			}
		case op < 76:
			runs = m.sweep(now)
			var got, want []string
			for _, s := range tr.Sweep() {
				got = append(got, s.ID)
			}
			for id := range runs {
				want = append(want, id)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				fail("Sweep = %v, model %v", got, want)
			}
		case op < 80:
			runs = m.sweep(now)
			snap := tr.Snapshot()
			want := Snapshot{Completed: m.completed, Aborted: m.aborted, Abandoned: m.abandoned,
				CompensationsRun: m.run, CompensationsFailed: m.fail, TTL: m.ttl}
			if got := len(snap.Active); got != len(m.active) {
				fail("Snapshot lists %d active, model %d", got, len(m.active))
			}
			if snap.Active = nil; !reflect.DeepEqual(snap, want) {
				fail("Snapshot = %+v, model %+v", snap, want)
			}
		default:
			now = now.Add(time.Duration(rng.Intn(6000)) * time.Millisecond)
		}

		checkRuns(ran[start:], runs)
		sort.Strings(abandoned)
		sort.Strings(m.swept)
		if !slices.Equal(abandoned, m.swept) {
			fail("OnAbandon saw %v, model abandoned %v", abandoned, m.swept)
		}
		if completed, aborted := tr.Stats(); completed != m.completed || aborted != m.aborted {
			fail("Stats = (%d, %d), model (%d, %d)", completed, aborted, m.completed, m.aborted)
		}
		if got := tr.Abandoned(); got != m.abandoned {
			fail("Abandoned = %d, model %d", got, m.abandoned)
		}
		for _, id := range ids {
			got, ok := tr.Lookup(id)
			want, wantOK := m.active[id]
			if ok != wantOK || ok && *got != *want {
				fail("Lookup(%s) = %+v, model %+v", id, got, want)
			}
		}
	}
}
