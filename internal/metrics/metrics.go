// Package metrics provides lightweight, concurrency-safe counters, gauges,
// and latency histograms used by every subsystem in the service-broker
// framework to record the measurements the paper's evaluation reports
// (response times, completion counts, drop ratios).
//
// The package is dependency-free and allocation-conscious. A Histogram keeps
// an exact count, sum, min and max, and a fixed log-linear grid of counts
// (16 sub-buckets per power of two of nanoseconds, 6,528 bytes allocated on
// the first observation), whatever the number of observations. Quantiles
// come from the grid: min and max exactly at q = 0 and q = 1, otherwise
// within 1/32 of the exact sample quantile (for samples under 208 days),
// independent of arrival order.
package metrics

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing 64-bit counter safe for concurrent
// use. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter. Negative deltas are rejected so that the
// counter stays monotone; use a Gauge for values that go down.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous 64-bit value safe for concurrent use. The zero
// value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative) and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Inc adds one and returns the new value.
func (g *Gauge) Inc() int64 { return g.v.Add(1) }

// Dec subtracts one and returns the new value.
func (g *Gauge) Dec() int64 { return g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// bucketCount is the number of log-scaled exposition buckets: bucket i
// covers [2^i, 2^(i+1)) microseconds, i in [0, bucketCount).
const bucketCount = 40

// The quantile grid: 2^gridBits linear sub-buckets per power of two of
// nanoseconds, so a grid bucket is at most 1/16 of its lower bound wide;
// below 32 ns every nanosecond has its own bucket. The gridSize buckets
// cover durations below 2^54 ns (about 208 days); longer ones share the top
// bucket.
const (
	gridBits = 4
	gridSize = (54 - gridBits + 1) << gridBits
)

// Exemplar pairs a bucket's most recent observation with the trace that
// produced it, so a latency bucket on /metrics links to a concrete /tracez
// record (OpenMetrics exemplar semantics). A zero TraceID means the bucket
// has no exemplar.
type Exemplar struct {
	TraceID uint64
	Value   time.Duration
}

// Histogram records duration observations: exact count, sum, min and max,
// exact log-scaled exposition bucket counts, and a fixed grid of counts for
// quantiles. Its size does not depend on the number of observations. The
// zero value is ready to use.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	buckets [bucketCount]int64
	// exemplars holds, per bucket, the most recent traced observation that
	// landed there (zero TraceID when the bucket has only untraced samples).
	exemplars [bucketCount]Exemplar
	// grid counts observations per gridIndex; allocated on the first
	// observation, so a histogram nothing observes stays small.
	grid *[gridSize]int64
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) { h.observe(d, 0) }

// ObserveTrace records one duration attributed to a trace; the trace ID
// becomes the observation's bucket exemplar. A zero traceID behaves like
// Observe.
func (h *Histogram) ObserveTrace(d time.Duration, traceID uint64) { h.observe(d, traceID) }

func (h *Histogram) observe(d time.Duration, traceID uint64) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	b := bucketFor(d)
	h.buckets[b]++
	if traceID != 0 {
		h.exemplars[b] = Exemplar{TraceID: traceID, Value: d}
	}
	if h.grid == nil {
		h.grid = new([gridSize]int64)
	}
	h.grid[gridIndex(d)]++
}

func bucketFor(d time.Duration) int {
	return min(bits.Len64(uint64(d.Microseconds())|1)-1, bucketCount-1)
}

// gridIndex is d's grid bucket: the top gridBits+1 bits of d in
// nanoseconds, offset by how far they were shifted down.
func gridIndex(d time.Duration) int {
	shift := max(bits.Len64(uint64(d))-gridBits-1, 0)
	return min(shift<<gridBits+int(d>>shift), gridSize-1)
}

// gridMid is the middle of grid bucket i, gridIndex's inverse.
func gridMid(i int) time.Duration {
	shift := max(i>>gridBits-1, 0)
	return time.Duration(i-shift<<gridBits)<<shift + (1<<shift-1)/2
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean observation, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1), or 0 if the histogram is
// empty. q outside [0,1] is clamped. q = 0 and q = 1 give Min and Max
// exactly; any other q gives the sample of rank ⌊q·(n−1)⌋ to within 1/32.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(min(max(q, 0), 1))
}

// quantileLocked walks the grid to the bucket holding the sample of rank
// ⌊q·(n−1)⌋ and returns the bucket's middle clamped to [min, max]; the
// lowest and highest ranks are min and max themselves. Caller holds h.mu.
func (h *Histogram) quantileLocked(q float64) time.Duration {
	rank := int64(q * float64(h.count-1))
	switch {
	case h.count == 0:
		return 0
	case rank == 0:
		return h.min
	case rank == h.count-1:
		return h.max
	}
	i := 0
	for ; rank >= h.grid[i]; i++ {
		rank -= h.grid[i]
	}
	return min(max(gridMid(i), h.min), h.max)
}

// Snapshot is an immutable copy of a Histogram's summary statistics,
// including the raw log-scaled bucket counts needed for Prometheus-style
// exposition (bucket i counts observations in [2^i, 2^(i+1)) microseconds;
// see BucketUpperBound).
type Snapshot struct {
	Count   int64
	Sum     time.Duration
	Mean    time.Duration
	Min     time.Duration
	Max     time.Duration
	P50     time.Duration
	P95     time.Duration
	P99     time.Duration
	Buckets []int64
	// Exemplars[i] is bucket i's most recent traced observation; a zero
	// TraceID means none.
	Exemplars []Exemplar
}

// Snapshot returns the current summary statistics under one lock
// acquisition.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot{
		Count:     h.count,
		Sum:       h.sum,
		Min:       h.min,
		Max:       h.max,
		P50:       h.quantileLocked(0.50),
		P95:       h.quantileLocked(0.95),
		P99:       h.quantileLocked(0.99),
		Buckets:   make([]int64, bucketCount),
		Exemplars: make([]Exemplar, bucketCount),
	}
	copy(s.Buckets, h.buckets[:])
	copy(s.Exemplars, h.exemplars[:])
	if h.count > 0 {
		s.Mean = h.sum / time.Duration(h.count)
	}
	return s
}

// String renders the snapshot in a compact single-line form suitable for
// experiment logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v min=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	h.buckets = [bucketCount]int64{}
	h.exemplars = [bucketCount]Exemplar{}
	if h.grid != nil {
		*h.grid = [gridSize]int64{}
	}
}

// NumBuckets reports the number of log-scaled histogram buckets.
const NumBuckets = bucketCount

// BucketUpperBound returns the exclusive upper bound of bucket i: 2^(i+1)
// microseconds. The final bucket is unbounded above (it absorbs every larger
// observation), matching Prometheus's +Inf bucket.
func BucketUpperBound(i int) time.Duration {
	return time.Microsecond << (min(max(i, 0), bucketCount-1) + 1)
}

// Timer measures one interval against a Histogram.
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer begins timing an interval recorded into h on ObserveDuration.
func StartTimer(h *Histogram) Timer {
	return Timer{h: h, start: time.Now()}
}

// ObserveDuration records the elapsed time since StartTimer and returns it.
func (t Timer) ObserveDuration() time.Duration {
	d := time.Since(t.start)
	t.h.Observe(d)
	return d
}
