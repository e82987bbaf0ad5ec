package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"servicebroker/internal/clock"
	"servicebroker/internal/testutil"
)

// model is the cache's specification as a recency-sorted slice (index 0 is
// the most recently used): TTL, LRU and GetStale, with none of the cache's
// indexing.
type model struct {
	max     int
	entries []modelEntry
	stats   Stats
}

type modelEntry struct {
	key     string
	value   []byte
	expires time.Time
}

func (m *model) find(key string) int {
	return slices.IndexFunc(m.entries, func(e modelEntry) bool { return e.key == key })
}

func (m *model) expired(e modelEntry) bool {
	return !e.expires.IsZero() && clock.Now().After(e.expires)
}

func (m *model) promote(i int) {
	e := m.entries[i]
	m.entries = slices.Insert(slices.Delete(m.entries, i, i+1), 0, e)
}

// get is Get when stale is false and GetStale when it is true.
func (m *model) get(key string, stale bool) ([]byte, bool) {
	i := m.find(key)
	switch {
	case i < 0:
		m.stats.Misses++
		return nil, false
	case m.expired(m.entries[i]) && stale:
		m.stats.StaleHits++
		return m.entries[i].value, true
	case m.expired(m.entries[i]):
		m.stats.Expired++
		m.stats.Misses++
		return nil, false
	}
	m.stats.Hits++
	m.promote(i)
	return m.entries[0].value, true
}

func (m *model) put(key string, value []byte, ttl time.Duration) {
	e := modelEntry{key: key, value: value}
	if ttl > 0 {
		e.expires = clock.Now().Add(ttl)
	}
	if i := m.find(key); i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	}
	m.entries = slices.Insert(m.entries, 0, e)
	for len(m.entries) > m.max {
		m.entries = m.entries[:len(m.entries)-1]
		m.stats.Evictions++
	}
}

func (m *model) delete(key string) bool {
	i := m.find(key)
	if i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	}
	return i >= 0
}

func (m *model) bytes() (n int64) {
	for _, e := range m.entries {
		n += int64(len(e.value))
	}
	return n
}

func (m *model) keys() []string {
	out := make([]string, len(m.entries))
	for i, e := range m.entries {
		out[i] = e.key
	}
	return out
}

// TestCacheMatchesModel runs 300 seeded schedules of Put, PutTTL, Get,
// GetStale, Delete and clock advances against a single-shard cache (every
// cache under 32 entries has one shard) and the model, comparing every
// observable after every step.
func TestCacheMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		advance := testutil.FakeClock(t)
		m := &model{max: 1 + rng.Intn(6)}
		ttl := time.Duration(rng.Intn(4)) * time.Second
		c := New(m.max, WithDefaultTTL(ttl))
		for step := 0; step < 200; step++ {
			fail := func(format string, args ...any) {
				t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			}
			key := fmt.Sprintf("k%d", rng.Intn(8))
			switch op := rng.Intn(19); {
			case op < 6:
				v := make([]byte, rng.Intn(7))
				rng.Read(v)
				if rng.Intn(3) == 0 {
					d := time.Duration(rng.Intn(4)) * time.Second
					c.PutTTL(key, v, d)
					m.put(key, v, d)
				} else {
					c.Put(key, v)
					m.put(key, v, ttl)
				}
			case op < 16:
				stale := op >= 12
				get := c.Get
				if stale {
					get = c.GetStale
				}
				gv, gok := get(key)
				mv, mok := m.get(key, stale)
				if gok != mok || string(gv) != string(mv) {
					fail("get(%s, stale=%v) = %q, %v; model %q, %v", key, stale, gv, gok, mv, mok)
				}
			case op < 18:
				if got, want := c.Delete(key), m.delete(key); got != want {
					fail("Delete(%s) = %v, model %v", key, got, want)
				}
			default:
				advance(time.Duration(rng.Intn(3)) * time.Second)
			}
			m.stats.Entries, m.stats.Bytes = len(m.entries), m.bytes()
			if got := c.Len(); got != len(m.entries) {
				fail("Len = %d, model %d", got, len(m.entries))
			}
			if got, want := c.Keys(), m.keys(); !slices.Equal(got, want) {
				fail("Keys = %v, model %v", got, want)
			}
			if got := c.Stats(); got != m.stats {
				fail("Stats = %+v, model %+v", got, m.stats)
			}
		}
	}
}
