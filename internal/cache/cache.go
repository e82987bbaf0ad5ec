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
// Each shard keeps its entries in one slab and finds them through a
// slotindex.Index of slot numbers, not a Go map: a map under put/evict churn
// grows to several times its live keys, while the index stays at 1⅓ to 2⅔
// int32 cells per entry whatever the traffic.
package cache

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/clock"
	"servicebroker/internal/slotindex"
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
// slot number, an index of those slots, and the bytes its values hold. The
// slab grows, never past maxEntries, until the shard is full; after that a
// put that evicts reuses the evicted entry's slot, so a miss that fills the
// cache allocates nothing but what the caller keeps. Every slot in the slab
// holds a live entry. Mutating stats are atomics so Stats can aggregate
// without a lock sweep on the counters (Entries/Bytes still take the shard
// lock briefly).
type shard struct {
	mu         sync.Mutex
	maxEntries int
	// The slab is two slices of the same length, one slot per entry: slots
	// holds the pointers, links the rest. links has no pointers, so the
	// collector skips it and it takes no allocation header: 256 links fill
	// the 4,096 B size class exactly.
	slots      []entry // at most maxEntries
	links      []link
	index      slotindex.Index // the hash's top bits; its low bits picked the shard
	head, tail int32           // most / least recently used slot
	bytes      int64

	hits, misses, evictions, expired, staleHits atomic.Int64
}

// noSlot ends the LRU list.
const noSlot = slotindex.None

type entry struct {
	key   string
	value []byte
}

// link is an entry's expiry and place in the LRU list.
type link struct {
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
			head:       noSlot,
			tail:       noSlot,
		}
	}
	return c
}

// Get returns the cached value for key. The returned slice is shared with
// the cache and must not be modified by the caller. Expired entries report
// a miss but are retained (bounded by the LRU limits) so GetStale can still
// serve them when the backend is unavailable.
func (c *Cache) Get(key string) ([]byte, bool) {
	h := slotindex.Hash(key)
	s := c.shards[h&c.mask]
	s.mu.Lock()
	i := s.find(key, h)
	if i == noSlot {
		s.mu.Unlock()
		s.misses.Add(1)
		c.access(key, false)
		return nil, false
	}
	if s.links[i].isExpired() {
		s.mu.Unlock()
		s.expired.Add(1)
		s.misses.Add(1)
		c.access(key, false)
		return nil, false
	}
	s.moveToFront(i)
	v := s.slots[i].value
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
	h := slotindex.Hash(key)
	s := c.shards[h&c.mask]
	s.mu.Lock()
	i := s.find(key, h)
	if i == noSlot {
		s.mu.Unlock()
		s.misses.Add(1)
		c.access(key, false)
		return nil, false
	}
	v := s.slots[i].value
	if s.links[i].isExpired() {
		s.mu.Unlock()
		s.staleHits.Add(1)
		c.access(key, false)
		return v, true
	}
	s.moveToFront(i)
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
	h := slotindex.Hash(key)
	s := c.shards[h&c.mask]
	s.mu.Lock()
	if i := s.find(key, h); i != noSlot {
		e := &s.slots[i]
		s.bytes += int64(len(value)) - int64(len(e.value))
		e.value = value
		s.links[i].expires = expires
		s.moveToFront(i)
	} else {
		i := s.slot()
		s.slots[i] = entry{key: key, value: value}
		s.links[i].expires = expires
		s.pushFront(i)
		s.index.Insert(i, h, s.hashAt)
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

// isExpired reports whether l's entry is past its TTL.
func (l *link) isExpired() bool {
	return l.expires != 0 && clock.Now().UnixNano() > l.expires
}

// find returns the slot holding key, whose hash is h, or noSlot. Caller
// holds s.mu.
func (s *shard) find(key string, h uint32) int32 {
	return s.index.Find(h, func(i int32) bool { return s.slots[i].key == key })
}

// hashAt rehashes slot i's key for the index. Caller holds s.mu.
func (s *shard) hashAt(i int32) uint32 { return slotindex.Hash(s.slots[i].key) }

// slot returns a slot for a new entry: the least recently used entry's when
// the shard is full (evicting it), else a new one at the end of the slab.
// The slab doubles, but never past maxEntries. Caller holds s.mu.
func (s *shard) slot() int32 {
	if len(s.slots) >= s.maxEntries {
		i := s.tail
		s.index.Delete(i, s.hashAt(i), s.hashAt)
		s.unlink(i)
		s.bytes -= int64(len(s.slots[i].value))
		s.evictions.Add(1)
		return i
	}
	if n := len(s.slots); n == cap(s.slots) {
		size := min(max(2*n, 4), s.maxEntries)
		s.slots = append(make([]entry, 0, size), s.slots...)
		s.links = append(make([]link, 0, size), s.links...)
	}
	s.slots = s.slots[:len(s.slots)+1]
	s.links = s.links[:len(s.links)+1]
	return int32(len(s.slots) - 1)
}

// pushFront links slot i in as the most recently used. Caller holds s.mu.
func (s *shard) pushFront(i int32) {
	l := &s.links[i]
	l.prev, l.next = noSlot, s.head
	if s.head != noSlot {
		s.links[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// unlink takes slot i out of the LRU list. Caller holds s.mu.
func (s *shard) unlink(i int32) {
	l := &s.links[i]
	if l.prev != noSlot {
		s.links[l.prev].next = l.next
	} else {
		s.head = l.next
	}
	if l.next != noSlot {
		s.links[l.next].prev = l.prev
	} else {
		s.tail = l.prev
	}
}

// moveToFront makes slot i the most recently used. Caller holds s.mu.
func (s *shard) moveToFront(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}
