package overload

import (
	"sync"
	"testing"
	"time"

	"servicebroker/internal/testutil"
)

func newTestLimiter(t *testing.T, cfg Config) (l *Limiter, advance func(time.Duration)) {
	t.Helper()
	l, err := NewLimiter(cfg)
	if err != nil {
		t.Fatalf("NewLimiter: %v", err)
	}
	return l, testutil.FakeClock(t)
}

func TestDefaultsAndValidation(t *testing.T) {
	l, err := NewLimiter(Config{})
	if err != nil {
		t.Fatalf("NewLimiter zero config: %v", err)
	}
	s := l.Snapshot()
	if s.Min != 1 || s.Max != 1024 || s.Limit != 1024 {
		t.Fatalf("unexpected defaults: %+v", s)
	}

	if _, err := NewLimiter(Config{Min: 10, Max: 5}); err == nil {
		t.Fatal("want error for Max < Min")
	}

	// Initial is clamped into [Min, Max].
	l, err = NewLimiter(Config{Min: 4, Max: 8, Initial: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("Initial not clamped to Max: got %d", got)
	}
	l, err = NewLimiter(Config{Min: 4, Max: 8, Initial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Limit(); got != 4 {
		t.Fatalf("Initial not clamped to Min: got %d", got)
	}
}

func TestAdditiveIncrease(t *testing.T) {
	l, _ := newTestLimiter(t, Config{Min: 1, Max: 100, Initial: 10, LatencyTarget: 10 * time.Millisecond})
	// About limit healthy completions should raise the limit by ~1.
	for i := 0; i < 10; i++ {
		l.Observe(time.Millisecond, true)
	}
	if got := l.Limit(); got != 10 && got != 11 {
		t.Fatalf("after one round of healthy completions, limit = %d, want ~11", got)
	}
	// Many more healthy completions saturate at Max.
	for i := 0; i < 100_000; i++ {
		l.Observe(time.Millisecond, true)
	}
	if got := l.Limit(); got != 100 {
		t.Fatalf("limit did not saturate at Max: got %d", got)
	}
}

func TestMultiplicativeCutOnLatencyBreach(t *testing.T) {
	l, advance := newTestLimiter(t, Config{Min: 2, Max: 100, Initial: 100, LatencyTarget: 10 * time.Millisecond, CutWindow: 100 * time.Millisecond})
	l.Observe(50*time.Millisecond, true) // slow but successful → cut
	if got := l.Limit(); got != 70 {
		t.Fatalf("after one cut, limit = %d, want 70", got)
	}
	// Inside the cut window further breaches are coalesced.
	l.Observe(50*time.Millisecond, true)
	l.Observe(0, false)
	if got := l.Limit(); got != 70 {
		t.Fatalf("cut applied inside window: limit = %d, want 70", got)
	}
	// After the window the next breach cuts again.
	advance(150 * time.Millisecond)
	l.Observe(0, false)
	if got := l.Limit(); got != 49 {
		t.Fatalf("after second cut, limit = %d, want 49", got)
	}
	s := l.Snapshot()
	if s.Cuts != 2 || s.Breaches != 4 {
		t.Fatalf("counter mismatch: %+v", s)
	}
}

func TestCutFloorsAtMin(t *testing.T) {
	l, advance := newTestLimiter(t, Config{Min: 3, Max: 100, Initial: 4, CutWindow: time.Millisecond})
	for i := 0; i < 10; i++ {
		l.Overload()
		advance(10 * time.Millisecond)
	}
	if got := l.Limit(); got != 3 {
		t.Fatalf("limit fell below Min: got %d", got)
	}
}

func TestZeroLatencyTargetIgnoresSlowSuccess(t *testing.T) {
	l, _ := newTestLimiter(t, Config{Min: 1, Max: 10, Initial: 5})
	l.Observe(time.Hour, true) // slow but target disabled → healthy
	if s := l.Snapshot(); s.Breaches != 0 || s.Healthy != 1 {
		t.Fatalf("slow success treated as breach with zero target: %+v", s)
	}
	l.Observe(0, false) // failure still cuts
	if s := l.Snapshot(); s.Cuts != 1 {
		t.Fatalf("failure did not cut: %+v", s)
	}
}

func TestOnChangeFires(t *testing.T) {
	l, advance := newTestLimiter(t, Config{Min: 1, Max: 100, Initial: 100, CutWindow: time.Millisecond})
	var got []int
	l.OnChange(func(n int) { got = append(got, n) })
	l.Overload()
	advance(10 * time.Millisecond)
	l.Overload()
	if len(got) != 2 || got[0] != 70 || got[1] != 49 {
		t.Fatalf("OnChange values = %v, want [70 49]", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	l, _ := newTestLimiter(t, Config{Min: 1, Max: 64, Initial: 32, LatencyTarget: 10 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				switch j % 3 {
				case 0:
					l.Observe(time.Millisecond, true)
				case 1:
					l.Observe(time.Minute, true)
				default:
					l.Overload()
				}
				_ = l.Limit()
				_ = l.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	if got := l.Limit(); got < 1 || got > 64 {
		t.Fatalf("limit escaped bounds: %d", got)
	}
}

// TestRecoversAfterTransientOverload drives the limiter through a
// congestion episode and checks it climbs back: the paper's "peak then
// decline" behavior needs the decline to be temporary.
func TestRecoversAfterTransientOverload(t *testing.T) {
	l, advance := newTestLimiter(t, Config{Min: 2, Max: 64, Initial: 64, LatencyTarget: 10 * time.Millisecond, CutWindow: 50 * time.Millisecond})
	for i := 0; i < 6; i++ {
		l.Observe(time.Second, true)
		advance(60 * time.Millisecond)
	}
	low := l.Limit()
	if low >= 16 {
		t.Fatalf("limit did not drop under sustained congestion: %d", low)
	}
	for i := 0; i < 20_000; i++ {
		l.Observe(time.Millisecond, true)
	}
	if got := l.Limit(); got != 64 {
		t.Fatalf("limit did not recover to Max: got %d (low was %d)", got, low)
	}
}
