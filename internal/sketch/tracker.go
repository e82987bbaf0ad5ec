package sketch

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/trace"
)

// Config sizes a Tracker. The zero value selects the defaults below.
type Config struct {
	// TopK is the number of hot keys a Snapshot reports (default 64). Each
	// shard tracks proportionally more candidates so key-space skew across
	// shards cannot silently drop a hot key.
	TopK int
	// Width and Depth set the per-shard count-min geometry (defaults
	// 1024×4 — 16 KiB of counters per shard).
	Width int
	Depth int
	// Shards is the number of lock stripes, rounded down to a power of two
	// (default 8).
	Shards int
	// Clock overrides the time source for deterministic tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.TopK < 1 {
		c.TopK = 64
	}
	if c.Width < 1 {
		c.Width = 1024
	}
	if c.Depth < 1 {
		c.Depth = 4
	}
	if c.Shards < 1 {
		c.Shards = 8
	}
	p := 1
	for p*2 <= c.Shards {
		p *= 2
	}
	c.Shards = p
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// HotKey is one reported hot key with its attribution.
type HotKey struct {
	Key string `json:"key"`
	// Count is the estimated access count (upper bound); Err bounds its
	// overestimation.
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"`
	// RatePerSec is Count over the tracker's lifetime.
	RatePerSec float64 `json:"rate_per_sec"`
	// HitRatio is the fresh-cache-hit ratio observed while tracked.
	HitRatio float64 `json:"hit_ratio"`
	// MeanLatencyUs / P95LatencyUs summarize request latency attributed to
	// the key while tracked, in microseconds.
	MeanLatencyUs float64 `json:"mean_latency_us"`
	P95LatencyUs  float64 `json:"p95_latency_us"`
}

// Snapshot is a point-in-time view of the tracker.
type Snapshot struct {
	// Keys holds up to TopK hot keys, most frequent first.
	Keys []HotKey `json:"keys"`
	// TotalAccesses / TotalHits count every recorded access and fresh hit.
	TotalAccesses uint64 `json:"total_accesses"`
	TotalHits     uint64 `json:"total_hits"`
	// Skew is the streaming Zipf-exponent estimate fitted over Keys.
	Skew float64 `json:"skew"`
	// MemoryBytes is the tracker's fixed memory footprint (sketch cells +
	// top-k entry structures).
	MemoryBytes int `json:"memory_bytes"`
	// Elapsed is the tracker's lifetime at snapshot time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// TopShare returns the fraction of all accesses attributed to the top n
// reported keys (0 when nothing was recorded).
func (s *Snapshot) TopShare(n int) float64 {
	if s.TotalAccesses == 0 {
		return 0
	}
	var sum uint64
	for i, k := range s.Keys {
		if i >= n {
			break
		}
		sum += k.Count
	}
	f := float64(sum) / float64(s.TotalAccesses)
	if f > 1 {
		f = 1
	}
	return f
}

// HitRatio returns TotalHits/TotalAccesses.
func (s *Snapshot) HitRatio() float64 {
	if s.TotalAccesses == 0 {
		return 0
	}
	return float64(s.TotalHits) / float64(s.TotalAccesses)
}

// WriteRows renders the snapshot as /hotz rows for a service: a summary
// line, then one line per hot key — at most limit of them when limit > 0.
func (s Snapshot) WriteRows(w io.Writer, service string, limit int) {
	fmt.Fprintf(w, "service=%s accesses=%d hit_ratio=%.3f skew=%.2f tracked=%d memory=%dB elapsed=%s\n",
		service, s.TotalAccesses, s.HitRatio(), s.Skew,
		len(s.Keys), s.MemoryBytes, s.Elapsed.Round(time.Second))
	keys := s.Keys
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	for i, k := range keys {
		fmt.Fprintf(w, "  #%-3d key=%q count=%d(±%d) rate=%.2f/s hit_ratio=%.3f mean=%s p95=%s\n",
			i+1, k.Key, k.Count, k.Err, k.RatePerSec, k.HitRatio,
			trace.FormatDuration(time.Duration(k.MeanLatencyUs)*time.Microsecond),
			trace.FormatDuration(time.Duration(k.P95LatencyUs)*time.Microsecond))
	}
}

// Tracker is the concurrency-safe workload-analytics front door: every
// request records its key here, and the admin plane snapshots the hot set.
// Internally the key space is hash-partitioned onto lock-striped shards,
// each owning a private count-min sketch and top-k tracker, so concurrent
// recorders on different keys take different locks — the same design as the
// sharded result cache. The record path performs no allocations.
type Tracker struct {
	cfg    Config
	shards []trackerShard
	mask   uint32
	start  time.Time

	total atomic.Uint64
	hits  atomic.Uint64
}

type trackerShard struct {
	mu  sync.Mutex
	cms *CountMin
	top *TopK
	_   [24]byte // pad towards a cache line to soften false sharing
}

// NewTracker returns a tracker sized by cfg.
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{
		cfg:    cfg,
		shards: make([]trackerShard, cfg.Shards),
		mask:   uint32(cfg.Shards - 1),
		start:  cfg.Clock(),
	}
	// Per-shard candidate capacity: twice the fair share, minimum 4, so an
	// uneven key hash cannot evict a genuinely hot key before the merge.
	per := 2 * cfg.TopK / cfg.Shards
	if per < 4 {
		per = 4
	}
	for i := range t.shards {
		t.shards[i].cms = NewCountMin(cfg.Width, cfg.Depth)
		t.shards[i].top = NewTopK(per)
	}
	return t
}

// shardFor hashes key (inline FNV-1a) onto a shard.
func (t *Tracker) shardFor(key string) *trackerShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	// Mix the high bits down: the low bits of FNV-1a alone correlate with
	// the last byte of the key.
	h ^= h >> 16
	return &t.shards[h&t.mask]
}

// RecordAccess records one access of key with its cache outcome (hit =
// fresh cache hit). Allocation-free and lock-striped.
func (t *Tracker) RecordAccess(key string, hit bool) {
	s := t.shardFor(key)
	s.mu.Lock()
	est := s.cms.Add(key)
	s.top.Offer(key, uint64(est), hit)
	s.mu.Unlock()
	t.total.Add(1)
	if hit {
		t.hits.Add(1)
	}
}

// RecordLatency attributes one request latency to key (ignored unless key is
// currently tracked as a hot candidate). Allocation-free.
func (t *Tracker) RecordLatency(key string, d time.Duration) {
	s := t.shardFor(key)
	s.mu.Lock()
	s.top.RecordLatency(key, d)
	s.mu.Unlock()
}

// Estimate returns the count-min frequency estimate for key.
func (t *Tracker) Estimate(key string) uint64 {
	s := t.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(s.cms.Estimate(key))
}

// TotalAccesses returns the number of recorded accesses.
func (t *Tracker) TotalAccesses() uint64 { return t.total.Load() }

// MemoryBytes reports the tracker's fixed memory footprint.
func (t *Tracker) MemoryBytes() int {
	n := 0
	for i := range t.shards {
		n += t.shards[i].cms.MemoryBytes() + t.shards[i].top.MemoryBytes()
	}
	return n
}

// Snapshot merges the per-shard candidate sets into the global top-k view,
// most frequent key first, and fits the skew estimate over it.
func (t *Tracker) Snapshot() Snapshot {
	var entries []Entry
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		entries = append(entries, s.top.Snapshot()...)
		s.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
	if len(entries) > t.cfg.TopK {
		entries = entries[:t.cfg.TopK]
	}

	elapsed := t.cfg.Clock().Sub(t.start)
	secs := elapsed.Seconds()
	snap := Snapshot{
		Keys:          make([]HotKey, 0, len(entries)),
		TotalAccesses: t.total.Load(),
		TotalHits:     t.hits.Load(),
		MemoryBytes:   t.MemoryBytes(),
		Elapsed:       elapsed,
	}
	counts := make([]uint64, 0, len(entries))
	for i := range entries {
		e := &entries[i]
		hk := HotKey{
			Key:           e.Key,
			Count:         e.Count,
			Err:           e.Err,
			HitRatio:      e.HitRatio(),
			MeanLatencyUs: float64(e.MeanLatency()) / float64(time.Microsecond),
			P95LatencyUs:  float64(e.P95Latency()) / float64(time.Microsecond),
		}
		if secs > 0 {
			hk.RatePerSec = float64(e.Count) / secs
		}
		snap.Keys = append(snap.Keys, hk)
		counts = append(counts, e.Count)
	}
	snap.Skew = EstimateSkew(counts)
	return snap
}
