package qos

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestQueuePushPopZeroAllocs pins the admission queue's hot path: once a
// class's backing array is warm, a Push/Pop pair must not allocate. The CI
// bench-smoke job runs every test matching "Alloc" with -count=2, so a
// regression here fails the build, not just a benchmark eyeball.
func TestQueuePushPopZeroAllocs(t *testing.T) {
	q := NewQueue[int](1024)
	// Warm the class so append never grows mid-measurement.
	for i := 0; i < 512; i++ {
		if err := q.Push(Class2, i); err != nil {
			t.Fatal(err)
		}
	}
	for {
		if _, _, ok := q.TryPop(); !ok {
			break
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := q.Push(Class2, 7); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := q.TryPop(); !ok {
			t.Fatal("queue empty after push")
		}
	})
	if allocs != 0 {
		t.Errorf("Push+TryPop = %.1f allocs/op, want 0", allocs)
	}
}

// TestQueueSojournFreshPathZeroAllocs: enabling sojourn eviction must not
// add allocations while nothing is actually expiring (the common case — the
// eviction slice only materializes when items are shed).
func TestQueueSojournFreshPathZeroAllocs(t *testing.T) {
	q := NewQueue[int](1024)
	q.SetSojourn(
		func(Class) time.Duration { return time.Hour },
		func(int, Class, time.Duration) {},
	)
	for i := 0; i < 512; i++ {
		if err := q.Push(Class1, i); err != nil {
			t.Fatal(err)
		}
	}
	for {
		if _, _, ok := q.TryPop(); !ok {
			break
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := q.Push(Class1, 7); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := q.TryPop(); !ok {
			t.Fatal("queue empty after push")
		}
	})
	if allocs != 0 {
		t.Errorf("sojourn-enabled Push+TryPop = %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue[int](1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Push(Class1, i); err != nil {
			b.Fatal(err)
		}
		if _, _, ok := q.TryPop(); !ok {
			b.Fatal("queue empty after push")
		}
	}
}

// BenchmarkQueuePushPopParallel measures contention on the queue's one lock:
// goroutines spread across three classes all push and pop through it. This is
// the number a future re-striping would have to beat — end to end, not here.
func BenchmarkQueuePushPopParallel(b *testing.B) {
	q := NewQueue[int](1 << 16)
	var gid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := Class(gid.Add(1)%3 + 1)
		for pb.Next() {
			if err := q.Push(c, 1); err != nil {
				b.Fatal(err)
			}
			q.TryPop()
		}
	})
}
