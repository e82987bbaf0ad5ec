package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasic(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not all-zero: %+v", h.Snapshot())
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Observe(d)
	}
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.Mean(); got != 2*time.Millisecond {
		t.Fatalf("mean = %v, want 2ms", got)
	}
	if got := h.Min(); got != time.Millisecond {
		t.Fatalf("min = %v, want 1ms", got)
	}
	if got := h.Max(); got != 3*time.Millisecond {
		t.Fatalf("max = %v, want 3ms", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if got := h.Min(); got != 0 {
		t.Fatalf("min = %v, want 0 (clamped)", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈50ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 95*time.Millisecond {
		t.Fatalf("p99 = %v, want ≥95ms", p99)
	}
	if lo, hi := h.Quantile(-1), h.Quantile(2); lo != h.Min() || hi != h.Max() {
		t.Fatalf("clamped quantiles = (%v, %v), want (min=%v, max=%v)", lo, hi, h.Min(), h.Max())
	}
}

func TestHistogramReservoirOverflow(t *testing.T) {
	var h Histogram
	// Overflow the reservoir and verify count/sum stay exact.
	n := reservoirSize + 5000
	for i := 0; i < n; i++ {
		h.Observe(time.Millisecond)
	}
	if got := h.Count(); got != int64(n) {
		t.Fatalf("count = %d, want %d", got, n)
	}
	if got := h.Mean(); got != time.Millisecond {
		t.Fatalf("mean = %v, want 1ms", got)
	}
	if got := h.Quantile(0.5); got != time.Millisecond {
		t.Fatalf("p50 = %v, want 1ms", got)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("reset histogram not empty: %+v", h.Snapshot())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, perWorker = 8, 500
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
}

// Property: mean is always within [min, max] for any set of observations.
func TestHistogramMeanBoundedProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		for _, s := range samples {
			h.Observe(time.Duration(s) * time.Microsecond)
		}
		m := h.Mean()
		return m >= h.Min() && m <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		if len(samples) < 2 {
			return true
		}
		var h Histogram
		for _, s := range samples {
			h.Observe(time.Duration(s) * time.Microsecond)
		}
		qs := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		prev := time.Duration(-1)
		for _, q := range qs {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketFor(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{1024 * time.Microsecond, 10},
		{time.Hour * 24 * 365, bucketCount - 1},
	}
	for _, tt := range tests {
		if got := bucketFor(tt.d); got != tt.want {
			t.Errorf("bucketFor(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestHistogramBucketsSumToCount(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * 37 * time.Microsecond)
	}
	var sum int64
	for _, b := range h.Buckets() {
		sum += b
	}
	if sum != h.Count() {
		t.Fatalf("bucket sum = %d, count = %d", sum, h.Count())
	}
}

func TestTimer(t *testing.T) {
	var h Histogram
	timer := StartTimer(&h)
	time.Sleep(2 * time.Millisecond)
	d := timer.ObserveDuration()
	if d < 2*time.Millisecond {
		t.Fatalf("timer observed %v, want ≥2ms", d)
	}
	if h.Count() != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count())
	}
}

func TestRegistryCreatesAndReuses(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("requests")
	c1.Inc()
	c2 := r.Counter("requests")
	if c2.Value() != 1 {
		t.Fatal("registry returned a fresh counter for an existing name")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("registry returned distinct gauges for the same name")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("registry returned distinct histograms for the same name")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "qos1"
	s.Add(10, 1.5)
	s.Add(20, 3.0)
	s.Add(30, 2.0)
	if y, ok := s.YAt(20); !ok || y != 3.0 {
		t.Fatalf("YAt(20) = %v, %v", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Fatal("YAt(99) reported ok for a missing x")
	}
	if p := s.MinY(); p.X != 10 {
		t.Fatalf("MinY at x=%g, want 10", p.X)
	}
}

func TestSeriesEmptyMinMax(t *testing.T) {
	var s Series
	if p := s.MinY(); p != (Point{}) {
		t.Fatalf("empty MinY = %+v", p)
	}
}

func TestTableRendering(t *testing.T) {
	a := &Series{Name: "api"}
	a.Add(10, 1)
	a.Add(20, 2)
	b := &Series{Name: "broker"}
	b.Add(10, 0.5)
	out := Table("clients", a, b)
	if !strings.Contains(out, "clients") || !strings.Contains(out, "api") || !strings.Contains(out, "broker") {
		t.Fatalf("table missing headers:\n%s", out)
	}
	// Row for x=20 must show "-" for the broker series.
	if !strings.Contains(out, "-") {
		t.Fatalf("table missing placeholder for absent point:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want 3:\n%s", len(lines), out)
	}
}

func TestStopwatch(t *testing.T) {
	sw := Stopwatch{Scale: 10 * time.Millisecond}
	if got := sw.PaperSeconds(20 * time.Millisecond); got != 2 {
		t.Fatalf("PaperSeconds = %g, want 2", got)
	}
	if got := sw.Wall(3); got != 30*time.Millisecond {
		t.Fatalf("Wall = %v, want 30ms", got)
	}
	// Zero scale falls back to identity (1 paper second = 1s).
	var id Stopwatch
	if got := id.PaperSeconds(1500 * time.Millisecond); got != 1.5 {
		t.Fatalf("identity PaperSeconds = %g, want 1.5", got)
	}
	if got := id.Wall(0.25); got != 250*time.Millisecond {
		t.Fatalf("identity Wall = %v, want 250ms", got)
	}
}

func TestSnapshotSingleLockMatchesQuantile(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != h.Sum() {
		t.Fatalf("snapshot sum = %v, histogram sum = %v", s.Sum, h.Sum())
	}
	for _, c := range []struct {
		q   float64
		got time.Duration
	}{{0.50, s.P50}, {0.95, s.P95}, {0.99, s.P99}} {
		if want := h.Quantile(c.q); c.got != want {
			t.Errorf("snapshot q%.2f = %v, Quantile = %v", c.q, c.got, want)
		}
	}
	if len(s.Buckets) != NumBuckets {
		t.Fatalf("snapshot buckets = %d, want %d", len(s.Buckets), NumBuckets)
	}
	var bucketSum int64
	for _, b := range s.Buckets {
		bucketSum += b
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum = %d, count = %d", bucketSum, s.Count)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 || s.P99 != 0 || s.Sum != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestBucketUpperBound(t *testing.T) {
	if got := BucketUpperBound(0); got != 2*time.Microsecond {
		t.Fatalf("bucket 0 upper = %v, want 2µs", got)
	}
	if got := BucketUpperBound(9); got != 1024*time.Microsecond {
		t.Fatalf("bucket 9 upper = %v, want ~1ms", got)
	}
	// Clamped at both ends.
	if BucketUpperBound(-5) != BucketUpperBound(0) {
		t.Fatal("negative index not clamped")
	}
	if BucketUpperBound(NumBuckets+3) != BucketUpperBound(NumBuckets-1) {
		t.Fatal("overflow index not clamped")
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	cases := []struct {
		name  string
		first func(r *Registry)
		then  func(r *Registry)
	}{
		{"counter-then-histogram", func(r *Registry) { r.Counter("x") }, func(r *Registry) { r.Histogram("x") }},
		{"histogram-then-counter", func(r *Registry) { r.Histogram("x") }, func(r *Registry) { r.Counter("x") }},
		{"gauge-then-counter", func(r *Registry) { r.Gauge("x") }, func(r *Registry) { r.Counter("x") }},
		{"counter-then-gauge", func(r *Registry) { r.Counter("x") }, func(r *Registry) { r.Gauge("x") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			c.first(r)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on metric kind collision")
				}
			}()
			c.then(r)
		})
	}
}

func TestRegistrySameKindDoesNotPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Gauge("y").Set(2)
	r.Histogram("z").Observe(time.Millisecond)
	r.Histogram("z").Observe(time.Millisecond)
	if r.Counter("x").Value() != 2 {
		t.Fatal("counter reuse broken")
	}
}

func TestRegistryView(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(3)
	r.Gauge("depth").Set(-2)
	r.Histogram("lat").Observe(5 * time.Millisecond)
	v := r.View()
	if v.Counters["reqs"] != 3 {
		t.Fatalf("view counter = %d", v.Counters["reqs"])
	}
	if v.Gauges["depth"] != -2 {
		t.Fatalf("view gauge = %d", v.Gauges["depth"])
	}
	h, ok := v.Histograms["lat"]
	if !ok || h.Count != 1 {
		t.Fatalf("view histogram = %+v, ok=%v", h, ok)
	}
	if len(h.Buckets) != NumBuckets {
		t.Fatalf("view histogram buckets = %d", len(h.Buckets))
	}
}
