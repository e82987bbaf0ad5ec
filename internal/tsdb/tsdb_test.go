package tsdb

import (
	"fmt"
	"testing"
	"time"

	"servicebroker/internal/metrics"
)

func TestSampleNowDerivesSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("requests").Add(5)
	reg.Gauge("outstanding").Set(3)
	reg.Histogram("queue_wait").Observe(40 * time.Millisecond)

	s := New(8)
	s.Mount("broker.db.", reg)
	s.SampleNow()
	reg.Counter("requests").Add(2)
	s.SampleNow()

	series, ok := s.Get("broker.db.requests")
	if !ok {
		t.Fatalf("counter series missing; have %v", s.series)
	}
	if len(series.Points) != 2 || series.Points[0].V != 5 || series.Points[1].V != 7 {
		t.Fatalf("counter points = %+v", series.Points)
	}
	if g, ok := s.Get("broker.db.outstanding"); !ok || g.Points[0].V != 3 {
		t.Fatalf("gauge series = %+v ok=%v", g, ok)
	}
	mean, ok := s.Get("broker.db.queue_wait.mean")
	if !ok || mean.Points[0].V <= 0 {
		t.Fatalf("histogram mean series = %+v ok=%v", mean, ok)
	}
	if c, ok := s.Get("broker.db.queue_wait.count"); !ok || c.Points[0].V != 1 {
		t.Fatalf("histogram count series = %+v ok=%v", c, ok)
	}
	if _, ok := s.Get("broker.db.queue_wait.p95"); !ok {
		t.Fatal("histogram p95 series missing")
	}
}

func TestRingBoundsAndOrder(t *testing.T) {
	reg := metrics.NewRegistry()
	g := reg.Gauge("v")
	s := New(3)
	s.Mount("", reg)
	for i := 1; i <= 5; i++ {
		g.Set(int64(i))
		s.SampleNow()
	}
	series, _ := s.Get("v")
	if len(series.Points) != 3 {
		t.Fatalf("ring holds %d points, want 3", len(series.Points))
	}
	for i, want := range []float64{3, 4, 5} {
		if series.Points[i].V != want {
			t.Fatalf("points = %+v, want oldest-first 3,4,5", series.Points)
		}
	}
}

func TestProbesAndSnapshotFilter(t *testing.T) {
	s := New(4)
	var ready bool
	s.AddProbe("broker.db.drop_ratio_class_1", func() (float64, bool) { return 0.25, ready })
	s.SampleNow() // skipped: ok=false
	ready = true
	s.SampleNow()

	series, ok := s.Get("broker.db.drop_ratio_class_1")
	if !ok || len(series.Points) != 1 || series.Points[0].V != 0.25 {
		t.Fatalf("probe series = %+v ok=%v", series, ok)
	}
	if got := s.Snapshot("drop_ratio"); len(got) != 1 {
		t.Fatalf("Snapshot(drop_ratio) = %d series", len(got))
	}
	if got := s.Snapshot("nonexistent"); len(got) != 0 {
		t.Fatalf("Snapshot(nonexistent) = %d series", len(got))
	}
}

func TestMaxSeriesCap(t *testing.T) {
	s := New(2)
	for i := 0; i < MaxSeries+10; i++ {
		i := i
		s.AddProbe(fmt.Sprintf("series_%d", i), func() (float64, bool) { return float64(i), true })
	}
	s.SampleNow()
	if n := len(s.series); n != MaxSeries {
		t.Fatalf("tracking %d series, want cap %d", n, MaxSeries)
	}
}

func TestStartSamplesOnTicker(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Gauge("v").Set(1)
	s := New(16)
	s.Mount("", reg)
	s.Start(time.Millisecond)
	defer s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if series, ok := s.Get("v"); ok && len(series.Points) >= 2 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("ticker never sampled the mounted registry")
}
