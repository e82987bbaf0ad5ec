// Package tsdb is a tiny in-process time-series store for the admin plane.
// A Sampler walks mounted metrics.Registry views on a ticker and appends one
// point per metric to a bounded per-series ring, so /seriesz can show the
// live shape of a run — the peak-then-decline curves the paper's figures
// plot offline — without any external monitoring system.
//
// Series are derived from registry views as follows:
//
//	counter <name>         → "<prefix><name>" (raw cumulative count)
//	gauge <name>           → "<prefix><name>" (instantaneous value)
//	histogram <name>       → "<prefix><name>.mean", ".p95" (seconds) and
//	                         ".count" (cumulative observations)
//
// Derived series (e.g. per-class drop ratios computed from two counters) are
// registered with Probe. Everything is stdlib-only and bounded: at most
// Capacity points per series, at most MaxSeries distinct series.
package tsdb

import (
	"sort"
	"strings"
	"sync"
	"time"

	"servicebroker/internal/metrics"
)

// DefaultCapacity bounds each series' point ring: at one sample per second,
// twenty minutes of history.
const DefaultCapacity = 1200

// MaxSeries bounds the number of distinct series a store will track, so a
// metric-name explosion (e.g. unbounded per-key counters) cannot grow the
// admin plane without limit. New series past the cap are dropped.
const MaxSeries = 512

// Point is one timestamped sample.
type Point struct {
	// Unix is the sample time in Unix milliseconds (JSON-friendly).
	Unix int64 `json:"t"`
	// V is the sample value; histogram-derived latency series are in seconds.
	V float64 `json:"v"`
}

// Series is one named metric history, oldest point first.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Probe computes one derived sample per tick. Returning ok=false skips the
// tick (e.g. a ratio whose denominator is still zero).
type Probe func() (v float64, ok bool)

// Store samples mounted registries into bounded per-series rings. The zero
// value is not usable; call New.
type Store struct {
	mu       sync.Mutex
	capacity int
	series   map[string]*ring
	mounts   []mount
	probes   []namedProbe

	stop chan struct{}
	done chan struct{}
}

type mount struct {
	prefix string
	reg    *metrics.Registry
}

type namedProbe struct {
	name string
	fn   Probe
}

type ring struct {
	pts  []Point
	next int
	full bool
}

func (r *ring) add(p Point) {
	if len(r.pts) < cap(r.pts) {
		r.pts = append(r.pts, p)
		return
	}
	r.pts[r.next] = p
	r.next = (r.next + 1) % cap(r.pts)
	r.full = true
}

func (r *ring) snapshot() []Point {
	out := make([]Point, 0, len(r.pts))
	if r.full {
		out = append(out, r.pts[r.next:]...)
		out = append(out, r.pts[:r.next]...)
	} else {
		out = append(out, r.pts...)
	}
	return out
}

// New returns a store keeping up to capacity points per series (capacity < 1
// selects DefaultCapacity).
func New(capacity int) *Store {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		series:   make(map[string]*ring),
	}
}

// Mount adds a registry whose metrics are sampled each tick, with every
// series name prefixed by prefix (e.g. "broker.db.").
func (s *Store) Mount(prefix string, reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	s.mounts = append(s.mounts, mount{prefix: prefix, reg: reg})
	s.mu.Unlock()
}

// AddProbe registers a derived series computed once per tick.
func (s *Store) AddProbe(name string, fn Probe) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.probes = append(s.probes, namedProbe{name: name, fn: fn})
	s.mu.Unlock()
}

// Start samples every interval until Close. Calling Start twice is a bug.
func (s *Store) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	s.mu.Lock()
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s.SampleNow()
			}
		}
	}()
}

// Close stops the sampling goroutine (if started) and waits for it.
func (s *Store) Close() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// SampleNow takes one sample of every mount and probe immediately. The
// ticker calls it; tests call it directly for determinism.
func (s *Store) SampleNow() {
	s.mu.Lock()
	mounts := append([]mount(nil), s.mounts...)
	probes := append([]namedProbe(nil), s.probes...)
	s.mu.Unlock()

	now := time.Now().UnixMilli()
	for _, m := range mounts {
		v := m.reg.View()
		for name, c := range v.Counters {
			s.record(m.prefix+name, now, float64(c))
		}
		for name, g := range v.Gauges {
			s.record(m.prefix+name, now, float64(g))
		}
		for name, snap := range v.Histograms {
			s.record(m.prefix+name+".mean", now, snap.Mean.Seconds())
			s.record(m.prefix+name+".p95", now, snap.P95.Seconds())
			s.record(m.prefix+name+".count", now, float64(snap.Count))
		}
	}
	for _, p := range probes {
		if v, ok := p.fn(); ok {
			s.record(p.name, now, v)
		}
	}
}

func (s *Store) record(name string, unix int64, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.series[name]
	if !ok {
		if len(s.series) >= MaxSeries {
			return
		}
		r = &ring{pts: make([]Point, 0, s.capacity)}
		s.series[name] = r
	}
	r.add(Point{Unix: unix, V: v})
}

// Get returns one series' points oldest-first, with ok=false for an unknown
// name.
func (s *Store) Get(name string) (Series, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.series[name]
	if !ok {
		return Series{}, false
	}
	return Series{Name: name, Points: r.snapshot()}, true
}

// Snapshot returns every series whose name contains match (all of them when
// match is empty), sorted by name, points oldest-first.
func (s *Store) Snapshot(match string) []Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Series, 0, len(s.series))
	for name, r := range s.series {
		if match != "" && !strings.Contains(name, match) {
			continue
		}
		out = append(out, Series{Name: name, Points: r.snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
