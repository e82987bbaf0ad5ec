package trace

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/metrics"
)

func TestNewIDNonZeroAndDistinct(t *testing.T) {
	seen := make(map[ID]bool)
	for i := 0; i < 10000; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("NewID returned zero")
		}
		if seen[id] {
			t.Fatalf("duplicate id %v after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestIDStringRoundTrip(t *testing.T) {
	for _, id := range []ID{1, 0xdeadbeef, NewID()} {
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("String() = %q, want 16 hex digits", s)
		}
		back, err := strconv.ParseUint(s, 16, 64)
		if err != nil || ID(back) != id {
			t.Fatalf("%q parses as %x, %v; want %v", s, back, err, id)
		}
	}
}

func TestActiveLifecycleAndAggregation(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := NewRecorder(WithMetrics(reg))

	a := rec.Start(0, "db", 2)
	if a.ID() == 0 {
		t.Fatal("Start(0, ...) did not assign an ID")
	}
	st := a.StartSpan(StageQueue)
	time.Sleep(time.Millisecond)
	st.End()
	a.Span(StageCache, time.Now().Add(-time.Millisecond), time.Now(), "miss")
	a.StartSpan(StageBackend).EndNote("rtt")
	a.SetStatus("ok")
	done := a.Finish()

	if done.Service != "db" || done.Class != 2 || done.Status != "ok" {
		t.Fatalf("finished trace = %+v", done)
	}
	if len(done.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(done.Spans))
	}
	if done.End.Before(done.Start) {
		t.Fatal("End before Start")
	}

	// Finish is idempotent and the ring holds exactly one record.
	a.Finish()
	if rec.Len() != 1 {
		t.Fatalf("ring len = %d, want 1", rec.Len())
	}

	// Aggregation landed under the canonical names.
	if got := reg.Counter("trace.db.finished").Value(); got != 1 {
		t.Fatalf("finished counter = %d", got)
	}
	if got := reg.Histogram("trace.db.queue").Count(); got != 1 {
		t.Fatalf("queue histogram count = %d", got)
	}
	if got := reg.Histogram("trace.db.backend.class_2").Count(); got != 1 {
		t.Fatalf("backend class histogram count = %d", got)
	}
}

func TestSnapshotFilters(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 10; i++ {
		svc := "db"
		class := 1
		if i%2 == 1 {
			svc, class = "dir", 3
		}
		a := rec.Start(ID(i+1), svc, class)
		a.Finish()
	}

	if got := len(rec.Snapshot(Filter{})); got != 10 {
		t.Fatalf("unfiltered = %d, want 10", got)
	}
	if got := len(rec.Snapshot(Filter{Service: "db"})); got != 5 {
		t.Fatalf("service filter = %d, want 5", got)
	}
	if got := len(rec.Snapshot(Filter{Class: 3})); got != 5 {
		t.Fatalf("class filter = %d, want 5", got)
	}
	if got := len(rec.Snapshot(Filter{Limit: 3})); got != 3 {
		t.Fatalf("limit = %d, want 3", got)
	}
	// Newest first: the last Start used ID 10.
	newest := rec.Snapshot(Filter{Limit: 1})
	if len(newest) != 1 || newest[0].ID != 10 {
		t.Fatalf("newest = %+v, want ID 10", newest)
	}
}

func TestRingEviction(t *testing.T) {
	ring := NewRing(4)
	for i := 1; i <= 10; i++ {
		ring.Put(Trace{ID: ID(i)})
	}
	if ring.Len() != 4 {
		t.Fatalf("len = %d, want 4", ring.Len())
	}
	got := ring.Snapshot(Filter{})
	want := []ID{10, 9, 8, 7}
	if len(got) != len(want) {
		t.Fatalf("snapshot = %d entries, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("snapshot[%d].ID = %v, want %v (full: %+v)", i, got[i].ID, id, got)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := NewRecorder(WithMetrics(reg))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				a := rec.Start(0, fmt.Sprintf("svc%d", g%2), 1+g%3)
				st := a.StartSpan(StageQueue)
				st.End()
				// A second goroutine annotating the same trace, like the
				// broker's worker pool does.
				var inner sync.WaitGroup
				inner.Add(1)
				go func() {
					defer inner.Done()
					a.StartSpan(StageBackend).EndNote("x")
				}()
				inner.Wait()
				a.Finish()
			}
		}(g)
	}
	wg.Wait()
	if rec.Len() != DefaultRingCapacity {
		t.Fatalf("ring len = %d, want full %d", rec.Len(), DefaultRingCapacity)
	}
	if got := reg.Counter("trace.svc0.finished").Value() + reg.Counter("trace.svc1.finished").Value(); got != 2400 {
		t.Fatalf("finished total = %d, want 2400", got)
	}
}

func TestNilActiveIsSafe(t *testing.T) {
	var a *Active
	a.SetStatus("ok")
	a.Span(StageQueue, time.Now(), time.Now(), "")
	if a.ID() != 0 {
		t.Fatal("nil Active ID != 0")
	}
	a.Finish()
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{500 * time.Nanosecond, "500ns"},
		{1500 * time.Nanosecond, "1.5µs"},
		{2 * time.Millisecond, "2ms"},
		{1500 * time.Millisecond, "1.5s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	if s := FormatDuration(123456 * time.Nanosecond); !strings.HasSuffix(s, "µs") {
		t.Errorf("FormatDuration(123.456µs) = %q", s)
	}
}
