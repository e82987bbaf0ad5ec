package sketch

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/testutil"
)

func TestCountMinNeverUndercounts(t *testing.T) {
	cms := NewCountMin(256, 4)
	truth := map[string]uint32{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("key-%d", rng.Intn(500))
		truth[k]++
		cms.Add(k)
	}
	for k, want := range truth {
		if got := cms.Estimate(k); got < want {
			t.Fatalf("Estimate(%q) = %d undercounts true %d", k, got, want)
		}
	}
}

func TestCountMinConservativeUpdateAccuracy(t *testing.T) {
	// With a sketch much wider than the key space the estimate should be
	// exact for the heavy keys.
	cms := NewCountMin(4096, 4)
	for i := 0; i < 1000; i++ {
		cms.Add("hot")
	}
	for i := 0; i < 100; i++ {
		cms.Add(fmt.Sprintf("cold-%d", i))
	}
	if got := cms.Estimate("hot"); got != 1000 {
		t.Fatalf("Estimate(hot) = %d, want exactly 1000 in an uncrowded sketch", got)
	}
	if got := cms.Estimate("never-seen"); got != 0 {
		t.Fatalf("Estimate(never-seen) = %d, want 0", got)
	}
}

func TestCountMinReset(t *testing.T) {
	cms := NewCountMin(64, 2)
	cms.Add("a")
	cms.Reset()
	if got := cms.Estimate("a"); got != 0 {
		t.Fatalf("after Reset, Estimate = %d, want 0", got)
	}
}

func TestTopKTracksHeavyHitters(t *testing.T) {
	cms := NewCountMin(1024, 4)
	top := NewTopK(8)
	rng := rand.New(rand.NewSource(7))
	// 8 hot keys at ~100x the rate of 200 cold keys.
	for i := 0; i < 50000; i++ {
		var k string
		if rng.Intn(10) < 8 {
			k = fmt.Sprintf("hot-%d", rng.Intn(8))
		} else {
			k = fmt.Sprintf("cold-%d", rng.Intn(200))
		}
		top.Offer(k, uint64(cms.Add(k)), false)
	}
	tracked := map[string]bool{}
	for _, e := range top.Snapshot() {
		tracked[e.Key] = true
	}
	for i := 0; i < 8; i++ {
		if !tracked[fmt.Sprintf("hot-%d", i)] {
			t.Fatalf("hot-%d missing from top-k; tracked: %v", i, tracked)
		}
	}
}

func TestTopKHitRatioAndLatency(t *testing.T) {
	top := NewTopK(4)
	for i := 0; i < 10; i++ {
		top.Offer("k", uint64(i+1), i%2 == 0)
	}
	top.RecordLatency("k", 1*time.Millisecond)
	top.RecordLatency("k", 3*time.Millisecond)
	top.RecordLatency("untracked", time.Second) // must be ignored

	snap := top.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("len(snapshot) = %d, want 1", len(snap))
	}
	e := snap[0]
	if got := e.HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", got)
	}
	if got := e.MeanLatency(); got != 2*time.Millisecond {
		t.Fatalf("MeanLatency = %v, want 2ms", got)
	}
	p95 := e.P95Latency()
	if p95 < 3*time.Millisecond || p95 > 8*time.Millisecond {
		t.Fatalf("P95Latency = %v, want bucket bound covering 3ms", p95)
	}
}

func TestTopKAdmissionFilter(t *testing.T) {
	top := NewTopK(2)
	top.Offer("a", 10, false)
	top.Offer("b", 20, false)
	// Estimate 5 does not beat the current minimum (a at 10): no churn.
	top.Offer("one-hit", 5, false)
	if top.Len() != 2 {
		t.Fatalf("Len = %d, want 2", top.Len())
	}
	for _, e := range top.Snapshot() {
		if e.Key == "one-hit" {
			t.Fatal("one-hit wonder displaced a tracked key")
		}
	}
	// Estimate 15 beats a's 10: displacement with inherited error bound.
	top.Offer("riser", 15, true)
	var found bool
	for _, e := range top.Snapshot() {
		if e.Key == "riser" {
			found = true
			if e.Count != 15 || e.Err != 10 {
				t.Fatalf("riser Count/Err = %d/%d, want 15/10", e.Count, e.Err)
			}
			if e.Accesses != 1 || e.Hits != 1 {
				t.Fatalf("riser Accesses/Hits = %d/%d, want 1/1", e.Accesses, e.Hits)
			}
		}
	}
	if !found {
		t.Fatal("riser not admitted despite beating the minimum")
	}
}

func TestEstimateSkew(t *testing.T) {
	// Perfect Zipf(1.0) profile: count(rank) = C / rank.
	var zipf []uint64
	for r := 1; r <= 50; r++ {
		zipf = append(zipf, uint64(100000/r))
	}
	if got := EstimateSkew(zipf); got < 0.9 || got > 1.1 {
		t.Fatalf("EstimateSkew(zipf 1.0) = %v, want ~1.0", got)
	}
	// Uniform profile: slope ~0.
	uniform := []uint64{100, 100, 100, 100, 100, 100}
	if got := EstimateSkew(uniform); got > 0.05 {
		t.Fatalf("EstimateSkew(uniform) = %v, want ~0", got)
	}
	if got := EstimateSkew([]uint64{5, 3}); got != 0 {
		t.Fatalf("EstimateSkew(2 points) = %v, want 0", got)
	}
	if got := EstimateSkew(nil); got != 0 {
		t.Fatalf("EstimateSkew(nil) = %v, want 0", got)
	}
}

func TestTrackerSnapshotMergesShards(t *testing.T) {
	advance := testutil.FakeClock(t)
	tr := NewTracker(Config{TopK: 16})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30000; i++ {
		var k string
		if rng.Intn(10) < 8 {
			k = fmt.Sprintf("hot-%d", rng.Intn(8))
		} else {
			k = fmt.Sprintf("cold-%d", rng.Intn(400))
		}
		hit := rng.Intn(4) != 0
		tr.RecordAccess(k, hit)
		tr.RecordLatency(k, time.Duration(rng.Intn(5000))*time.Microsecond)
	}
	advance(10 * time.Second)
	snap := tr.Snapshot()

	if snap.TotalAccesses != 30000 {
		t.Fatalf("TotalAccesses = %d, want 30000", snap.TotalAccesses)
	}
	if snap.Elapsed != 10*time.Second {
		t.Fatalf("Elapsed = %v, want 10s", snap.Elapsed)
	}
	if len(snap.Keys) == 0 || len(snap.Keys) > 16 {
		t.Fatalf("len(Keys) = %d, want 1..16", len(snap.Keys))
	}
	// Sorted descending by count, hot keys in the head.
	for i := 1; i < len(snap.Keys); i++ {
		if snap.Keys[i].Count > snap.Keys[i-1].Count {
			t.Fatalf("Keys not sorted: %d before %d", snap.Keys[i-1].Count, snap.Keys[i].Count)
		}
	}
	head := map[string]bool{}
	for _, k := range snap.Keys[:8] {
		head[k.Key] = true
	}
	for i := 0; i < 8; i++ {
		if !head[fmt.Sprintf("hot-%d", i)] {
			t.Fatalf("hot-%d missing from merged top-8 head: %v", i, head)
		}
	}
	if snap.Keys[0].RatePerSec <= 0 {
		t.Fatalf("RatePerSec = %v, want > 0", snap.Keys[0].RatePerSec)
	}
	if snap.Skew <= 0 {
		t.Fatalf("Skew = %v, want > 0 for a skewed stream", snap.Skew)
	}
	if snap.MemoryBytes <= 0 {
		t.Fatalf("MemoryBytes = %d, want > 0", snap.MemoryBytes)
	}
	if hr := snap.HitRatio(); hr < 0.7 || hr > 0.8 {
		t.Fatalf("HitRatio = %v, want ~0.75", hr)
	}
	if ts := snap.TopShare(8); ts < 0.7 {
		t.Fatalf("TopShare(8) = %v, want ≥ 0.7 for an 80/20 stream", ts)
	}
}

func TestTrackerConcurrentAccess(t *testing.T) {
	tr := NewTracker(Config{TopK: 32})
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 5000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("key-%d", i%100)
				tr.RecordAccess(k, i%2 == 0)
				tr.RecordLatency(k, time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if got := tr.TotalAccesses(); got != goroutines*perG {
		t.Fatalf("TotalAccesses = %d, want %d", got, goroutines*perG)
	}
	snap := tr.Snapshot()
	if len(snap.Keys) == 0 {
		t.Fatal("no keys tracked after concurrent load")
	}
}

func TestTrackerMemoryIsFixed(t *testing.T) {
	tr := NewTracker(Config{})
	before := tr.MemoryBytes()
	for i := 0; i < 100000; i++ {
		tr.RecordAccess(fmt.Sprintf("key-%d", i), false)
	}
	if after := tr.MemoryBytes(); after != before {
		t.Fatalf("MemoryBytes grew under load: %d -> %d", before, after)
	}
}
