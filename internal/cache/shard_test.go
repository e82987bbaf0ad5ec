package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/testutil"
)

func TestAutoShardCount(t *testing.T) {
	cases := []struct {
		name string
		c    *Cache
		want int
	}{
		{"tiny", New(3), 1},
		{"small", New(64), 4},
		{"large", New(1024), 16},
		{"rounds down", New(200), 8},
		{"huge", New(1 << 20), 16},
	}
	for _, tc := range cases {
		if got := len(tc.c.shards); got != tc.want {
			t.Errorf("%s: %d shards, want %d", tc.name, got, tc.want)
		}
	}
}

func TestShardStatsAggregate(t *testing.T) {
	c := New(1024)
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("key-%d", i), []byte("value"))
	}
	for i := 0; i < 400; i++ {
		c.Get(fmt.Sprintf("key-%d", i)) // half hit, half miss
	}
	var sum Stats
	for _, st := range c.ShardStats() {
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.Expired += st.Expired
		sum.StaleHits += st.StaleHits
		sum.Entries += st.Entries
		sum.Bytes += st.Bytes
	}
	if got := c.Stats(); got != sum {
		t.Fatalf("Stats() = %+v, shard sum = %+v", got, sum)
	}
	if sum.Hits != 200 || sum.Misses != 200 {
		t.Fatalf("hits/misses = %d/%d, want 200/200", sum.Hits, sum.Misses)
	}
	if sum.Entries != 200 {
		t.Fatalf("entries = %d, want 200", sum.Entries)
	}
}

// TestShardedCapacityInvariant: the global entry bound holds under random
// churn regardless of hash skew, because per-shard caps under-allocate.
func TestShardedCapacityInvariant(t *testing.T) {
	const maxEntries = 256
	c := New(maxEntries)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		c.Put(fmt.Sprintf("key-%d", rng.Intn(2000)), make([]byte, rng.Intn(64)))
		if n := c.Stats().Entries; n > maxEntries {
			t.Fatalf("Entries = %d exceeds maxEntries %d at op %d", n, maxEntries, i)
		}
	}
}

// TestShardedTTLAndStale: TTL expiry and the GetStale degraded path work
// identically through the sharded structure.
func TestShardedTTLAndStale(t *testing.T) {
	advance := testutil.FakeClock(t)
	c := New(1024)
	c.PutTTL("k", []byte("v"), time.Second)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh entry missing")
	}
	advance(2 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("expired entry served by Get")
	}
	v, ok := c.GetStale("k")
	if !ok || string(v) != "v" {
		t.Fatalf("GetStale = %q, %v; want v, true", v, ok)
	}
	st := c.Stats()
	if st.StaleHits != 1 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want StaleHits 1 Expired 1", st)
	}
}

// TestCacheHitAllocs pins the hit path at zero allocations: the lookup,
// promotion and stat update are all allocation-free.
func TestCacheHitAllocs(t *testing.T) {
	c := New(1024)
	c.Put("hot-key", []byte("hot-value"))
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get("hot-key"); !ok {
			t.Fatal("hit path missed")
		}
	})
	if allocs > 0 {
		t.Fatalf("cache hit = %.1f allocs/op, want 0", allocs)
	}
}

// TestCachePutAllocs pins the miss path's fill: once a shard is full, a Put
// that evicts reuses the evicted entry's slot, and a Put that updates a key
// reuses its own, so neither allocates.
func TestCachePutAllocs(t *testing.T) {
	const n = 16 // one shard
	c := New(n)
	keys := make([]string, 4*n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	value := []byte("result")
	for _, k := range keys[:n] {
		c.Put(k, value)
	}
	i := 0
	evicting := testing.AllocsPerRun(1000, func() {
		c.Put(keys[n+i%(3*n)], value)
		i++
	})
	if evicting > 0 {
		t.Errorf("evicting Put = %.1f allocs/op, want 0", evicting)
	}
	if ev := c.Stats().Evictions; ev < 1000 {
		t.Fatalf("evictions = %d, want every measured Put to evict", ev)
	}
	updating := testing.AllocsPerRun(1000, func() { c.Put(keys[n], value) })
	if updating > 0 {
		t.Errorf("updating Put = %.1f allocs/op, want 0", updating)
	}
}

// TestCacheRetainedBytesPerEntry bounds what a full cache keeps per entry
// beyond its keys' and values' own bytes — slot, index cells and any slack —
// after churn: 10⁶ puts of distinct keys into 4,096 entries. A Go map key
// index read about 203 B here: under put/evict churn a map grows to several
// times its live keys. One 56-byte slab entry read 72.5 to 73.9 B; split in
// two slices it reads 67.2 to 68.5 B, the budget that plus 10 %.
func TestCacheRetainedBytesPerEntry(t *testing.T) {
	const entries, puts, budget = 4096, 1_000_000, 75
	var before, after runtime.MemStats
	// Twice: a sync.Pool keeps its contents through one collection.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(entries)
	for i := 0; i < puts; i++ {
		// 16-byte keys and 32-byte values fill their size classes exactly,
		// so the allocator rounds none of the bytes counted below.
		c.Put(fmt.Sprintf("key-%012d", i), make([]byte, 32))
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := c.Stats()
	if st.Entries != entries {
		t.Fatalf("entries = %d, want a full cache of %d", st.Entries, entries)
	}
	payload := int64(st.Entries)*16 + st.Bytes
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)-payload) / float64(st.Entries)
	t.Logf("%.1f B per entry beyond keys and values", perEntry)
	if perEntry > budget {
		t.Fatalf("%.1f B per entry beyond keys and values, budget %d", perEntry, budget)
	}
}

// BenchmarkParallelGetSharded measures Get throughput with exactly 8
// goroutines hammering a shared working set in a 1,024-entry cache's 16
// shards — the broker hot path under concurrent load.
func BenchmarkParallelGetSharded(b *testing.B) {
	const workers = 8
	const keySpace = 512
	c := New(1024)
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		c.Put(keys[i], []byte("cached response body"))
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < b.N; i += workers {
				c.Get(keys[i%keySpace])
			}
		}(w)
	}
	wg.Wait()
}
