package txn

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// idemModel is the reference the table is checked against: open flights in a
// map, recorded outcomes in one slice in record order, and the bounds applied
// by scanning all of it.
type idemModel struct {
	cap        int
	ttl        time.Duration
	pending    map[string]*mflight
	recs       []mrec
	st         IdemStats
	overwrites int64 // restores over a live outcome: replaced, not forgotten
}

type mflight struct {
	key     string
	settled bool
	out     *Outcome // what waiters get once settled; nil after a cancel
}

type mrec struct {
	key string
	out Outcome
	at  time.Time
}

func (m *idemModel) expired(r mrec, now time.Time) bool {
	return m.ttl > 0 && now.Sub(r.at) > m.ttl
}

// find returns the index of key's recorded outcome, or -1.
func (m *idemModel) find(key string) int {
	return slices.IndexFunc(m.recs, func(r mrec) bool { return r.key == key })
}

// drop removes key's recorded outcome, if any, counting it as expired when it
// is; it reports whether the outcome was still live.
func (m *idemModel) drop(key string, now time.Time) (live bool) {
	i := m.find(key)
	if i < 0 {
		return false
	}
	if live = !m.expired(m.recs[i], now); !live {
		m.st.Expired++
	}
	m.recs = slices.Delete(m.recs, i, i+1)
	return live
}

func (m *idemModel) record(key string, out Outcome, now time.Time) {
	m.recs = append(m.recs, mrec{key, out, now})
	for _, r := range slices.Clone(m.recs) {
		if m.expired(r, now) {
			m.drop(r.key, now)
		}
	}
	for len(m.recs) > m.cap {
		m.recs = m.recs[1:]
		m.st.Evicted++
	}
}

// TestIdemTableAgainstModel drives seeded schedules of Acquire, Complete,
// Share, Cancel, Await, Restore and clock advances through the table and the
// model side by side, comparing every observable after every step: one owner
// per key, waiters get the owner's outcome or nothing, recorded outcomes stay
// within capacity, and every outcome that leaves is counted once, as expired
// or as evicted.
func TestIdemTableAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		runIdemSchedule(t, seed)
	}
}

func runIdemSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	now := time.Unix(1000, 0)
	m := &idemModel{cap: 1 + rng.Intn(5), pending: map[string]*mflight{}}
	if rng.Intn(2) == 0 {
		m.ttl = 10 * time.Second
	}
	tbl := NewIdemTable(m.cap, m.ttl)
	tbl.SetClock(func() time.Time { return now })
	m.st.Capacity, m.st.TTL = m.cap, m.ttl

	keys := make([]string, 2+rng.Intn(8))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	type held struct {
		tk *Ticket
		f  *mflight
	}
	var owners, waiters []held
	nextOut := 0
	newOutcome := func() Outcome {
		nextOut++
		return Outcome{Status: nextOut}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	check := func() {
		m.st.Size = len(m.pending) + len(m.recs)
		st := tbl.Stats()
		if st != m.st {
			fail("Stats = %+v, model %+v", st, m.st)
		}
		for _, k := range keys {
			out, ok := tbl.Lookup(k)
			i := m.find(k)
			wantOK := i >= 0 && !m.expired(m.recs[i], now)
			if ok != wantOK || ok && out.Status != m.recs[i].out.Status {
				fail("Lookup(%s) = (%d, %v), model ok %v", k, out.Status, ok, wantOK)
			}
		}
		if recorded := st.Size - len(m.pending); recorded > m.cap {
			fail("%d recorded outcomes held, capacity %d", recorded, m.cap)
		} else if st.Recorded+st.Restored-m.overwrites != int64(recorded)+st.Expired+st.Evicted {
			fail("outcomes unaccounted for: %+v, %d held, %d overwritten", st, recorded, m.overwrites)
		}
	}

	steps := 100 + rng.Intn(200)
	for ; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 35: // Acquire
			k := keys[rng.Intn(len(keys))]
			out, hit, tk := tbl.Acquire(k)
			if f, ok := m.pending[k]; ok {
				m.st.Coalesced++
				if hit || tk == nil || tk.Owner() {
					fail("Acquire(%s) during a flight: hit %v ticket %v", k, hit, tk)
				}
				waiters = append(waiters, held{tk, f})
				break
			}
			if i := m.find(k); i >= 0 && !m.expired(m.recs[i], now) {
				m.st.Hits++
				if !hit || out.Status != m.recs[i].out.Status {
					fail("Acquire(%s) = (%d, hit %v), model replays %d", k, out.Status, hit, m.recs[i].out.Status)
				}
				break
			}
			m.drop(k, now)
			m.st.Flights++
			if hit || tk == nil || !tk.Owner() {
				fail("Acquire(%s) on a free key: hit %v ticket %v", k, hit, tk)
			}
			f := &mflight{key: k}
			m.pending[k] = f
			owners = append(owners, held{tk, f})
		case op < 60: // the owner settles, or settles again: a no-op
			if len(owners) == 0 {
				break
			}
			i := rng.Intn(len(owners))
			o := owners[i]
			out, kind := newOutcome(), rng.Intn(3)
			if !o.f.settled {
				o.f.settled = true
				delete(m.pending, o.f.key)
				if kind < 2 {
					o.f.out = &out
				}
				if kind == 0 {
					m.st.Recorded++
					m.record(o.f.key, out, now)
				}
			}
			switch kind {
			case 0:
				o.tk.Complete(out)
			case 1:
				o.tk.Share(out)
			default:
				o.tk.Cancel()
			}
			owners = slices.Delete(owners, i, i+1)
			if rng.Intn(4) == 0 {
				owners = append(owners, o) // settled: any later call is a no-op
			}
		case op < 75: // a waiter collects
			if len(waiters) == 0 {
				break
			}
			i := rng.Intn(len(waiters))
			w := waiters[i]
			if !w.f.settled {
				if _, ok, err := w.tk.Await(cancelled); ok || err == nil {
					fail("Await on an open flight with a done context: ok %v err %v", ok, err)
				}
				break
			}
			out, ok, err := w.tk.Await(context.Background())
			if err != nil || ok != (w.f.out != nil) || ok && out.Status != w.f.out.Status {
				fail("Await = (%d, %v, %v), model %+v", out.Status, ok, err, w.f.out)
			}
			if ok {
				m.st.Shared++
			}
			waiters = slices.Delete(waiters, i, i+1)
		case op < 85: // Restore from a journal
			k := keys[rng.Intn(len(keys))]
			out := newOutcome()
			if f, ok := m.pending[k]; ok {
				f.settled, f.out = true, &out
				delete(m.pending, k)
			} else if m.drop(k, now) {
				m.overwrites++
			}
			m.st.Restored++
			m.record(k, out, now)
			tbl.Restore(k, out)
		default:
			now = now.Add(time.Duration(rng.Intn(7000)) * time.Millisecond)
		}
		check()
	}
}
