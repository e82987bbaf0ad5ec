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
package cache

import (
	"math"
	"sort"
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
	// seq is a global access clock: entries are stamped on insert and
	// promotion so Keys can report recency order across shards.
	seq atomic.Uint64
}

// shard is one lock domain: a slab of entries linked into an LRU list by
// slot index, a key → slot index, and the bytes its values hold. The slab
// grows by append until the shard is full; after that a put that evicts
// reuses the evicted entry's slot, so a miss that fills the cache allocates
// nothing but what the caller keeps. Mutating stats are atomics so Stats can
// aggregate without a lock sweep on the counters (Entries/Bytes still take
// the shard lock briefly).
type shard struct {
	mu         sync.Mutex
	maxEntries int
	slots      []entry          // at most maxEntries
	index      map[string]int32 // key → slot
	head, tail int32            // most / least recently used slot
	free       int32            // slots given up by Delete, chained by next
	bytes      int64

	hits, misses, evictions, expired, staleHits atomic.Int64
}

// noSlot ends the LRU list and the free chain.
const noSlot int32 = -1

type entry struct {
	key        string
	value      []byte
	expires    time.Time // zero means never
	seq        uint64    // global access clock at last promotion
	prev, next int32     // LRU neighbours toward head / tail
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
		s := &shard{
			// Integer division under-allocates the remainder, keeping the
			// global entry invariant strict: Σ per-shard ≤ global.
			// Slot indices are int32, which caps a shard there.
			maxEntries: min(maxEntries/n, math.MaxInt32),
		}
		s.reset()
		c.shards[i] = s
	}
	return c
}

// shardFor hashes key (inline FNV-1a, allocation-free) onto a shard.
func (c *Cache) shardFor(key string) *shard {
	if c.mask == 0 {
		return c.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h&c.mask]
}

// Get returns the cached value for key. The returned slice is shared with
// the cache and must not be modified by the caller. Expired entries report
// a miss but are retained (bounded by the LRU limits) so GetStale can still
// serve them when the backend is unavailable.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	i, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		c.access(key, false)
		return nil, false
	}
	e := &s.slots[i]
	if c.isExpired(e) {
		s.mu.Unlock()
		s.expired.Add(1)
		s.misses.Add(1)
		c.access(key, false)
		return nil, false
	}
	s.moveToFront(i)
	e.seq = c.seq.Add(1)
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
	s := c.shardFor(key)
	s.mu.Lock()
	i, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		c.access(key, false)
		return nil, false
	}
	e := &s.slots[i]
	if c.isExpired(e) {
		v := e.value
		s.mu.Unlock()
		s.staleHits.Add(1)
		c.access(key, false)
		return v, true
	}
	s.moveToFront(i)
	e.seq = c.seq.Add(1)
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
	var expires time.Time
	if ttl > 0 {
		expires = clock.Now().Add(ttl)
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if i, ok := s.index[key]; ok {
		e := &s.slots[i]
		s.bytes += int64(len(value)) - int64(len(e.value))
		e.value = value
		e.expires = expires
		e.seq = c.seq.Add(1)
		s.moveToFront(i)
	} else {
		i := s.slot()
		s.slots[i] = entry{key: key, value: value, expires: expires, seq: c.seq.Add(1)}
		s.pushFront(i)
		s.index[key] = i
		s.bytes += int64(len(value))
	}
	s.mu.Unlock()
}

// Delete removes key if present, reporting whether it was there.
func (c *Cache) Delete(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if ok {
		s.release(i)
	}
	return ok
}

// Len returns the number of live entries (including any not yet observed to
// be expired).
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
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
	entries, bytes := len(s.index), s.bytes
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

// Keys returns the cached keys from most to least recently used, merged
// across shards by the global access clock. Intended for tests and
// diagnostics.
func (c *Cache) Keys() []string {
	type stamped struct {
		key string
		seq uint64
	}
	var all []stamped
	for _, s := range c.shards {
		s.mu.Lock()
		for i := s.head; i != noSlot; i = s.slots[i].next {
			e := &s.slots[i]
			all = append(all, stamped{key: e.key, seq: e.seq})
		}
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	out := make([]string, len(all))
	for i, st := range all {
		out[i] = st.key
	}
	return out
}

// isExpired reports whether e is past its TTL.
func (c *Cache) isExpired(e *entry) bool {
	return !e.expires.IsZero() && clock.Now().After(e.expires)
}

// reset empties the shard. Caller owns s.
func (s *shard) reset() {
	s.slots, s.index = nil, make(map[string]int32)
	s.head, s.tail, s.free = noSlot, noSlot, noSlot
	s.bytes = 0
}

// slot returns a slot for a new entry: the least recently used entry's when
// the shard is full (evicting it), else one Delete gave up, else a new one
// at the end of the slab. Caller holds s.mu.
func (s *shard) slot() int32 {
	switch {
	case len(s.index) >= s.maxEntries:
		i := s.tail
		s.drop(i)
		s.evictions.Add(1)
		return i
	case s.free != noSlot:
		i := s.free
		s.free = s.slots[i].next
		return i
	}
	s.slots = append(s.slots, entry{})
	return int32(len(s.slots) - 1)
}

// drop takes slot i's entry out of the LRU list and the index. Caller holds
// s.mu.
func (s *shard) drop(i int32) {
	e := &s.slots[i]
	s.unlink(i)
	delete(s.index, e.key)
	s.bytes -= int64(len(e.value))
}

// release drops slot i's entry, lets go of its key and value, and chains
// the slot onto the free list. Caller holds s.mu.
func (s *shard) release(i int32) {
	s.drop(i)
	s.slots[i] = entry{next: s.free}
	s.free = i
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
