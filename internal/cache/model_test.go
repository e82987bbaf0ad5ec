package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"servicebroker/internal/clock"
	"servicebroker/internal/slotindex"
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

// TestCacheMatchesModel runs seeded schedules of Put, PutTTL, Get,
// GetStale and clock advances against a single-shard cache (every cache
// under 32 entries has one shard) and the model, comparing every observable
// after every step. Seeds 1–300 draw 8 keys into a capacity of 1–6. Seeds
// 301–450 draw 20 keys in three groups that share the top six bits of their
// hash (home cell last, first and middle at every index length up to 64)
// into a capacity of 4–19: they pile into one probe run that wraps past the
// end of the index and merges with the others, so evictions and re-puts
// delete from and insert into the middle of it.
func TestCacheMatchesModel(t *testing.T) {
	spread := make([]string, 8)
	for i := range spread {
		spread[i] = fmt.Sprintf("k%d", i)
	}
	colliding := collidingKeys(map[uint32]int{63: 10, 0: 6, 31: 4})
	for seed := int64(1); seed <= 450; seed++ {
		rng := rand.New(rand.NewSource(seed))
		advance := testutil.FakeClock(t)
		keys, max := spread, 1+rng.Intn(6)
		if seed > 300 {
			keys, max = colliding, 4+rng.Intn(16)
		}
		m := &model{max: max}
		ttl := time.Duration(rng.Intn(4)) * time.Second
		c := New(m.max, WithDefaultTTL(ttl))
		for step := 0; step < 200; step++ {
			fail := func(format string, args ...any) {
				t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			}
			key := keys[rng.Intn(len(keys))]
			switch op := rng.Intn(17); {
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
			default:
				advance(time.Duration(rng.Intn(3)) * time.Second)
			}
			m.stats.Entries, m.stats.Bytes = len(m.entries), m.bytes()
			if got, want := lruKeys(t, c), m.keys(); !slices.Equal(got, want) {
				fail("keys = %v, model %v", got, want)
			}
			if got := c.Stats(); got != m.stats {
				fail("Stats = %+v, model %+v", got, m.stats)
			}
		}
	}
}

// collidingKeys returns, for each top-six-bit hash value in want, that many
// keys whose hash starts with it.
func collidingKeys(want map[uint32]int) []string {
	var keys []string
	for i := 0; len(want) > 0; i++ {
		k := fmt.Sprintf("p%d", i)
		top := slotindex.Hash(k) >> 26
		if want[top] > 0 {
			keys = append(keys, k)
			if want[top]--; want[top] == 0 {
				delete(want, top)
			}
		}
	}
	return keys
}
