package clock

import (
	"sync"
	"testing"
	"time"
)

func TestSetAndRestore(t *testing.T) {
	if d := Since(time.Now()); d < 0 || d > time.Minute {
		t.Fatalf("wall clock Since = %v", d)
	}
	at := time.Unix(1000, 0)
	restore := Set(func() time.Time { return at })
	if got := Now(); !got.Equal(at) {
		t.Fatalf("Now = %v, want %v", got, at)
	}
	if got := Since(at.Add(-time.Second)); got != time.Second {
		t.Fatalf("Since = %v, want 1s", got)
	}
	inner := Set(func() time.Time { return at.Add(time.Hour) })
	if got := Now(); !got.Equal(at.Add(time.Hour)) {
		t.Fatalf("nested Now = %v", got)
	}
	inner()
	if got := Now(); !got.Equal(at) {
		t.Fatalf("after inner restore Now = %v, want %v", got, at)
	}
	restore()
	if got := Now(); got.Year() < 2000 {
		t.Fatalf("after restore Now = %v, want the wall clock", got)
	}
}

// A read allocates nothing, on the wall clock or a set source.
func TestNowAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Now() }); n != 0 {
		t.Fatalf("wall-clock Now allocates %v", n)
	}
	defer Set(func() time.Time { return time.Unix(1000, 0) })()
	if n := testing.AllocsPerRun(100, func() { Since(time.Time{}) }); n != 0 {
		t.Fatalf("Since on a set source allocates %v", n)
	}
}

// Reads race with a swap of the source without a data race (go test -race).
func TestReadsRaceWithSet(t *testing.T) {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					Now()
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		Set(func() time.Time { return time.Unix(int64(i), 0) })()
	}
	close(stop)
	wg.Wait()
}
