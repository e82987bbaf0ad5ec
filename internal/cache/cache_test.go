package cache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"servicebroker/internal/testutil"
)

func TestPutGet(t *testing.T) {
	c := New(4)
	c.Put("a", []byte("1"))
	got, ok := c.Get("a")
	if !ok || string(got) != "1" {
		t.Fatalf("Get(a) = %q, %v", got, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) reported a hit")
	}
}

func TestNewPanicsOnNonPositiveSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestUpdateExistingKey(t *testing.T) {
	c := New(4)
	c.Put("k", []byte("old"))
	c.Put("k", []byte("new value"))
	got, _ := c.Get("k")
	if string(got) != "new value" {
		t.Fatalf("Get = %q, want new value", got)
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("Entries = %d, want 1", n)
	}
	if b := c.Stats().Bytes; b != int64(len("new value")) {
		t.Fatalf("Bytes = %d, want %d", b, len("new value"))
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("c", []byte("3"))
	c.Get("a") // a becomes MRU; b is now LRU
	c.Put("d", []byte("4"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; want LRU evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted; want kept", k)
		}
	}
	if e := c.Stats().Evictions; e != 1 {
		t.Fatalf("evictions = %d, want 1", e)
	}
}

func TestTTLExpiry(t *testing.T) {
	advance := testutil.FakeClock(t)
	c := New(4, WithDefaultTTL(10*time.Second))
	c.Put("k", []byte("v"))
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry missing before expiry")
	}
	advance(11 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry still present after TTL")
	}
	st := c.Stats()
	if st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (expired entry retained for stale reads)", st.Entries)
	}
}

func TestGetStale(t *testing.T) {
	advance := testutil.FakeClock(t)
	c := New(4, WithDefaultTTL(10*time.Second))
	c.Put("k", []byte("v"))

	// Fresh entry: GetStale behaves like Get.
	if v, ok := c.GetStale("k"); !ok || string(v) != "v" {
		t.Fatalf("GetStale(fresh) = %q, %v", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.StaleHits != 0 {
		t.Fatalf("fresh stale read: stats = %+v", st)
	}

	// Expired entry: Get misses but GetStale still serves it.
	advance(11 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get served an expired entry")
	}
	if v, ok := c.GetStale("k"); !ok || string(v) != "v" {
		t.Fatalf("GetStale(expired) = %q, %v", v, ok)
	}
	if st := c.Stats(); st.StaleHits != 1 {
		t.Fatalf("stale read: stats = %+v", st)
	}

	// Absent key: a plain miss.
	if _, ok := c.GetStale("missing"); ok {
		t.Fatal("GetStale invented a value")
	}
}

func TestPutTTLOverridesDefault(t *testing.T) {
	advance := testutil.FakeClock(t)
	c := New(4, WithDefaultTTL(time.Second))
	c.PutTTL("forever", []byte("v"), 0) // never expires
	advance(time.Hour)
	if _, ok := c.Get("forever"); !ok {
		t.Fatal("ttl=0 entry expired; want immortal")
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := New(4)
	c.Put("a", nil)
	c.Put("b", nil)
	c.Put("c", nil)
	c.Get("a")
	keys := lruKeys(t, c)
	want := []string{"a", "c", "b"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestHitRatio(t *testing.T) {
	c := New(4)
	c.Put("k", []byte("v"))
	c.Get("k")
	c.Get("k")
	c.Get("miss")
	if r := c.Stats().HitRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("hit ratio = %g, want 2/3", r)
	}
	var empty Stats
	if empty.HitRatio() != 0 {
		t.Fatal("empty hit ratio != 0")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (seed+i)%100)
				if i%3 == 0 {
					c.Put(k, []byte(k))
				} else {
					if v, ok := c.Get(k); ok && string(v) != k {
						t.Errorf("Get(%s) = %q", k, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// Property: entry count never exceeds maxEntries regardless of operation
// sequence.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(keys []uint8, max uint8) bool {
		m := int(max%16) + 1
		c := New(m)
		for _, k := range keys {
			c.Put(fmt.Sprintf("k%d", k), []byte{k})
			if c.Stats().Entries > m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Get returns exactly what the most recent Put stored.
func TestGetReturnsLastPutProperty(t *testing.T) {
	f := func(vals [][]byte) bool {
		c := New(8)
		for _, v := range vals {
			c.Put("k", v)
			got, ok := c.Get("k")
			if !ok || string(got) != string(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: byte accounting equals the sum of live value lengths.
func TestByteAccountingProperty(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Val []byte
	}) bool {
		c := New(8)
		for _, op := range ops {
			c.Put(fmt.Sprintf("k%d", op.Key%12), op.Val)
		}
		var want int64
		for _, k := range lruKeys(t, c) {
			v, ok := c.Get(k)
			if !ok {
				return false
			}
			want += int64(len(v))
		}
		return c.Stats().Bytes == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccessHook(t *testing.T) {
	type access struct {
		key string
		hit bool
	}
	var got []access
	advance := testutil.FakeClock(t)
	c := New(8,
		WithDefaultTTL(50*time.Millisecond),
		WithAccessHook(func(key string, hit bool) { got = append(got, access{key, hit}) }))

	c.Get("a") // miss
	c.Put("a", []byte("v"))
	c.Get("a") // fresh hit
	advance(time.Second)
	c.Get("a")      // expired -> miss
	c.GetStale("a") // stale read -> not a fresh hit
	c.Put("b", []byte("v"))
	c.GetStale("b") // fresh via GetStale -> hit
	c.GetStale("c") // absent

	want := []access{
		{"a", false}, {"a", true}, {"a", false}, {"a", false},
		{"b", true}, {"c", false},
	}
	if len(got) != len(want) {
		t.Fatalf("hook fired %d times, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// lruKeys returns a single-shard cache's keys from most to least recently
// used, walking the shard's LRU list.
func lruKeys(t *testing.T, c *Cache) []string {
	t.Helper()
	if len(c.shards) != 1 {
		t.Fatalf("lruKeys needs a single-shard cache, got %d shards", len(c.shards))
	}
	s := c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for i := s.head; i != noSlot; i = s.slots[i].next {
		keys = append(keys, s.slots[i].key)
	}
	return keys
}
