// Package cache provides the LRU + TTL result cache used by service brokers
// to cache backend query results (paper §III, "Caching of query results").
//
// Brokers see every query and response for their service, so popular results
// (the paper's movie-schedule example) can be served without touching the
// backend. The cache bounds memory by entry count, evicting least-recently-
// used entries first; entries also carry a time-to-live after which normal
// Get lookups treat them as absent, while GetStale can still read them — the
// degraded-mode path that lets a broker answer with the best data it has
// when the backend is unreachable.
//
// Internally the cache is split into power-of-two shards keyed by an FNV-1a
// hash so concurrent hits on different keys take different locks — the
// broker's cache-hit fast path is its highest-traffic code and a single
// global mutex was the throughput ceiling. Small caches (where per-shard
// budgets would be tiny) collapse to one shard, preserving exact global LRU
// order; larger caches trade exact cross-shard eviction order for lock
// spreading, which is the standard sharded-LRU compromise.
//
// Each shard keeps its entries in one slab and finds them through an
// open-addressed table of slot numbers, not a Go map: a map under put/evict
// churn grows to several times its live keys, while the table stays at
// two to four int32 cells per entry whatever the traffic.
package cache

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/clock"
)

// Stats summarizes cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Expired   int64
	// StaleHits counts GetStale reads served from expired entries.
	StaleHits int64
	Entries   int
	Bytes     int64
}

// HitRatio returns hits / (hits + misses), or 0 when no lookups occurred.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// ShardStats is one shard's share of the cache, as exposed on the admin
// plane: watching per-shard hit counts makes key-space skew visible.
type ShardStats struct {
	Shard int `json:"shard"`
	Stats
}

// Cache is a concurrency-safe sharded LRU cache with per-entry TTL. Use New
// to create one.
type Cache struct {
	defaultTTL time.Duration
	onAccess   func(key string, hit bool)

	shards []*shard
	mask   uint32
}

// shard is one lock domain: a slab of entries linked into an LRU list by
// slot index, an open-addressed index of those slots, and the bytes its
// values hold. The slab grows, never past maxEntries, until the shard is
// full; after that a put that evicts reuses the evicted entry's slot, so a
// miss that fills the cache allocates nothing but what the caller keeps.
// Every slot in the slab holds a live entry. Mutating stats are atomics so
// Stats can aggregate without a lock sweep on the counters (Entries/Bytes
// still take the shard lock briefly).
type shard struct {
	mu         sync.Mutex
	maxEntries int
	slots      []entry // at most maxEntries
	// index is a linear-probing table of slot+1 (0 is an empty cell) whose
	// length is a power of two at least twice len(slots), so its load stays
	// at ½ or below. A key's home cell is the top bits of its hash (shift
	// is 32 − log2(len(index))); the low bits picked the shard.
	index      []int32
	shift      uint8
	head, tail int32 // most / least recently used slot
	bytes      int64

	hits, misses, evictions, expired, staleHits atomic.Int64
}

// noSlot ends the LRU list.
const noSlot int32 = -1

// minIndexBits sizes a fresh shard's index: 1<<minIndexBits cells.
const minIndexBits = 3

type entry struct {
	key        string
	value      []byte
	expires    int64 // Unix ns; 0 means never
	prev, next int32 // LRU neighbours toward head / tail
}

// Option configures a Cache.
type Option interface {
	apply(*Cache)
}

type optionFunc func(*Cache)

func (f optionFunc) apply(c *Cache) { f(c) }

// WithDefaultTTL sets the TTL applied by Put. Zero (the default) means
// entries never expire.
func WithDefaultTTL(ttl time.Duration) Option {
	return optionFunc(func(c *Cache) { c.defaultTTL = ttl })
}

// WithAccessHook registers fn to observe every Get/GetStale lookup: fn is
// called with the key and whether the lookup was a fresh hit (stale reads
// and misses report false). The hook runs outside the shard lock on the
// cache-hit fast path, so it must be cheap, allocation-free, and must not
// call back into the cache. The broker uses this to feed the hot-key
// tracker (package sketch).
func WithAccessHook(fn func(key string, hit bool)) Option {
	return optionFunc(func(c *Cache) { c.onAccess = fn })
}

// maxShards bounds the shard count; past ~16 lock domains the broker's
// worker parallelism, not the cache, is the limit.
const maxShards = 16

// shardCount sizes the shard array: the largest power of two that keeps at
// least 16 entries per shard, capped at maxShards. Small caches — which is
// what the exact-LRU tests use — come out as a single shard.
func shardCount(maxEntries int) int {
	n := 1
	for n*2 <= min(maxShards, maxEntries/maxShards) {
		n *= 2
	}
	return n
}

// New creates a cache holding at most maxEntries entries. maxEntries must be
// positive.
func New(maxEntries int, opts ...Option) *Cache {
	if maxEntries <= 0 {
		panic("cache: maxEntries must be positive")
	}
	c := &Cache{}
	for _, o := range opts {
		o.apply(c)
	}
	n := shardCount(maxEntries)
	c.mask = uint32(n - 1)
	c.shards = make([]*shard, n)
	for i := range c.shards {
		c.shards[i] = &shard{
			// Integer division under-allocates the remainder, keeping the
			// global entry invariant strict: Σ per-shard ≤ global.
			// Slot indices are int32, which caps a shard there.
			maxEntries: min(maxEntries/n, math.MaxInt32),
			index:      make([]int32, 1<<minIndexBits),
			shift:      32 - minIndexBits,
			head:       noSlot,
			tail:       noSlot,
		}
	}
	return c
}

// hash is FNV-1a over key, inline and allocation-free. Its low bits pick
// the shard and its high bits the home cell in that shard's index.
func hash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// Get returns the cached value for key. The returned slice is shared with
// the cache and must not be modified by the caller. Expired entries report
// a miss but are retained (bounded by the LRU limits) so GetStale can still
// serve them when the backend is unavailable.
func (c *Cache) Get(key string) ([]byte, bool) {
	h := hash(key)
	s := c.shards[h&c.mask]
	s.mu.Lock()
	i, _ := s.find(key, h)
	if i == noSlot {
		s.mu.Unlock()
		s.misses.Add(1)
		c.access(key, false)
		return nil, false
	}
	e := &s.slots[i]
	if e.isExpired() {
		s.mu.Unlock()
		s.expired.Add(1)
		s.misses.Add(1)
		c.access(key, false)
		return nil, false
	}
	s.moveToFront(i)
	v := e.value
	s.mu.Unlock()
	s.hits.Add(1)
	c.access(key, true)
	return v, true
}

// access fires the registered access hook, if any, outside the shard lock.
func (c *Cache) access(key string, hit bool) {
	if c.onAccess != nil {
		c.onAccess(key, hit)
	}
}

// GetStale returns the value for key regardless of TTL expiry — the
// degraded-mode read the broker uses to serve an immediate low-fidelity
// response when retries and replicas are exhausted. A fresh entry counts as
// a hit and is promoted like Get; an expired one counts toward StaleHits
// and keeps its LRU position. The returned slice is shared with the cache
// and must not be modified.
func (c *Cache) GetStale(key string) ([]byte, bool) {
	h := hash(key)
	s := c.shards[h&c.mask]
	s.mu.Lock()
	i, _ := s.find(key, h)
	if i == noSlot {
		s.mu.Unlock()
		s.misses.Add(1)
		c.access(key, false)
		return nil, false
	}
	e := &s.slots[i]
	if e.isExpired() {
		v := e.value
		s.mu.Unlock()
		s.staleHits.Add(1)
		c.access(key, false)
		return v, true
	}
	s.moveToFront(i)
	v := e.value
	s.mu.Unlock()
	s.hits.Add(1)
	c.access(key, true)
	return v, true
}

// Put stores value under key with the cache's default TTL.
func (c *Cache) Put(key string, value []byte) {
	c.PutTTL(key, value, c.defaultTTL)
}

// PutTTL stores value under key with an explicit TTL; ttl ≤ 0 means the
// entry never expires.
func (c *Cache) PutTTL(key string, value []byte, ttl time.Duration) {
	var expires int64
	if ttl > 0 {
		expires = clock.Now().Add(ttl).UnixNano()
	}
	h := hash(key)
	s := c.shards[h&c.mask]
	s.mu.Lock()
	if i, _ := s.find(key, h); i != noSlot {
		e := &s.slots[i]
		s.bytes += int64(len(value)) - int64(len(e.value))
		e.value = value
		e.expires = expires
		s.moveToFront(i)
	} else {
		i := s.slot()
		s.slots[i] = entry{key: key, value: value, expires: expires}
		s.pushFront(i)
		s.insert(i, h)
		s.bytes += int64(len(value))
	}
	s.mu.Unlock()
}

// Stats returns a snapshot of the cache counters, aggregated over shards.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		st := s.snapshot()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Evictions += st.Evictions
		out.Expired += st.Expired
		out.StaleHits += st.StaleHits
		out.Entries += st.Entries
		out.Bytes += st.Bytes
	}
	return out
}

// ShardStats returns per-shard counter snapshots, in shard order.
func (c *Cache) ShardStats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i, s := range c.shards {
		out[i] = ShardStats{Shard: i, Stats: s.snapshot()}
	}
	return out
}

// snapshot reads one shard's counters.
func (s *shard) snapshot() Stats {
	s.mu.Lock()
	entries, bytes := len(s.slots), s.bytes
	s.mu.Unlock()
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
		Expired:   s.expired.Load(),
		StaleHits: s.staleHits.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}

// isExpired reports whether e is past its TTL.
func (e *entry) isExpired() bool {
	return e.expires != 0 && clock.Now().UnixNano() > e.expires
}

// find returns the slot holding key, whose hash is h, and the index cell
// that points at it; noSlot and the empty cell that ends key's probe run
// when key is absent. Caller holds s.mu.
func (s *shard) find(key string, h uint32) (int32, int) {
	mask := len(s.index) - 1
	for pos := int(h >> s.shift); ; pos = (pos + 1) & mask {
		v := s.index[pos]
		if v == 0 {
			return noSlot, pos
		}
		if s.slots[v-1].key == key {
			return v - 1, pos
		}
	}
}

// insert points the first empty cell of h's probe run at slot i, doubling
// the index first when the slab has outgrown half of it. Caller holds s.mu.
func (s *shard) insert(i int32, h uint32) {
	if 2*len(s.slots) > len(s.index) {
		s.index = make([]int32, 2*len(s.index))
		s.shift--
		for j := range s.slots {
			if int32(j) != i {
				s.place(int32(j), hash(s.slots[j].key))
			}
		}
	}
	s.place(i, h)
}

// place points the first empty cell of h's probe run at slot i. Caller
// holds s.mu.
func (s *shard) place(i int32, h uint32) {
	mask := len(s.index) - 1
	pos := int(h >> s.shift)
	for s.index[pos] != 0 {
		pos = (pos + 1) & mask
	}
	s.index[pos] = i + 1
}

// remove empties index cell pos by backward-shift deletion: each later
// cell of the probe run that may sit at or before the hole moves into it,
// so no lookup ever meets a gap inside its run and no tombstone is left.
// Caller holds s.mu.
func (s *shard) remove(pos int) {
	mask := len(s.index) - 1
	for j := (pos + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		home := int(hash(s.slots[s.index[j]-1].key) >> s.shift)
		// The cell at j may move to the hole unless its home lies
		// cyclically in (pos, j].
		if (j-home)&mask >= (j-pos)&mask {
			s.index[pos] = s.index[j]
			pos = j
		}
	}
	s.index[pos] = 0
}

// slot returns a slot for a new entry: the least recently used entry's when
// the shard is full (evicting it), else a new one at the end of the slab.
// The slab doubles, but never past maxEntries. Caller holds s.mu.
func (s *shard) slot() int32 {
	if len(s.slots) >= s.maxEntries {
		i := s.tail
		e := &s.slots[i]
		_, pos := s.find(e.key, hash(e.key))
		s.remove(pos)
		s.unlink(i)
		s.bytes -= int64(len(e.value))
		s.evictions.Add(1)
		return i
	}
	if len(s.slots) == cap(s.slots) {
		grown := make([]entry, len(s.slots), min(max(2*cap(s.slots), 4), s.maxEntries))
		copy(grown, s.slots)
		s.slots = grown
	}
	s.slots = s.slots[:len(s.slots)+1]
	return int32(len(s.slots) - 1)
}

// pushFront links slot i in as the most recently used. Caller holds s.mu.
func (s *shard) pushFront(i int32) {
	e := &s.slots[i]
	e.prev, e.next = noSlot, s.head
	if s.head != noSlot {
		s.slots[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// unlink takes slot i out of the LRU list. Caller holds s.mu.
func (s *shard) unlink(i int32) {
	e := &s.slots[i]
	if e.prev != noSlot {
		s.slots[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next != noSlot {
		s.slots[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// moveToFront makes slot i the most recently used. Caller holds s.mu.
func (s *shard) moveToFront(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}
