package cache

import (
	"fmt"
	"math/rand"
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

// TestKeysMRUAcrossShards: the global access clock must give Keys recency
// order even when the entries live in different shards.
func TestKeysMRUAcrossShards(t *testing.T) {
	c := New(1024)
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, k := range keys {
		c.Put(k, []byte(k))
	}
	// Touch in a known order; most recent access should list first.
	c.Get("beta")
	c.Get("delta")
	c.Get("alpha")
	got := c.Keys()
	want := []string{"alpha", "delta", "beta", "epsilon", "gamma"}
	if len(got) != len(want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
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
		if n := c.Len(); n > maxEntries {
			t.Fatalf("Len() = %d exceeds maxEntries %d at op %d", n, maxEntries, i)
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

// TestCacheHitAllocs is the ISSUE's regression gate: a cache hit must cost
// at most one allocation (it costs zero — the lookup, promotion, and stat
// update are all allocation-free).
func TestCacheHitAllocs(t *testing.T) {
	c := New(1024)
	c.Put("hot-key", []byte("hot-value"))
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get("hot-key"); !ok {
			t.Fatal("hit path missed")
		}
	})
	if allocs > 1 {
		t.Fatalf("cache hit = %.1f allocs/op, budget 1", allocs)
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
