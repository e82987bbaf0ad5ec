package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry is a named collection of metrics. Subsystems register their
// counters and histograms under stable names so that experiment harnesses,
// the cmd/sbexp binary, and the obs admin server can dump a consistent
// snapshot. The zero value is ready to use.
//
// A name identifies exactly one metric of one kind: asking for the same name
// as two different kinds (e.g. Counter("x") then Histogram("x")) is a
// programming error and panics, instead of silently yielding two unrelated
// metrics that would both appear in exports.
type Registry struct {
	mu         sync.Mutex
	kinds      map[string]string // name → "counter" | "gauge" | "histogram"
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// claim records the kind of a metric name, panicking if the name is already
// registered as a different kind. Caller holds r.mu.
func (r *Registry) claim(name, kind string) {
	if r.kinds == nil {
		r.kinds = make(map[string]string)
	}
	if existing, ok := r.kinds[name]; ok && existing != kind {
		panic(fmt.Sprintf("metrics: %q already registered as a %s, requested as a %s",
			name, existing, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the counter with the given name, creating it on first use.
// It panics if name is already registered as a different metric kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "counter")
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// It panics if name is already registered as a different metric kind.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "gauge")
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on first
// use. It panics if name is already registered as a different metric kind.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "histogram")
	if r.histograms == nil {
		r.histograms = make(map[string]*Histogram)
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Forget removes the metric registered under name, whatever its kind, so a
// name taken from outside input does not outlive what it measured.
func (r *Registry) Forget(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.kinds, name)
	delete(r.counters, name)
	delete(r.gauges, name)
	delete(r.histograms, name)
}

// View is a point-in-time export of a registry's metrics, keyed by name.
// Histogram values are full snapshots (including bucket counts) so renderers
// such as the obs admin server can emit Prometheus-style exposition without
// reaching into live metric objects.
type View struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]Snapshot
}

// View exports every registered metric. Counter and gauge values are read
// under the registry lock; histogram snapshots are taken afterwards so one
// slow histogram does not stall concurrent registrations.
func (r *Registry) View() View {
	r.mu.Lock()
	v := View{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]Snapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		v.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		v.Gauges[name] = g.Value()
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hists[name] = h
	}
	r.mu.Unlock()
	for name, h := range hists {
		v.Histograms[name] = h.Snapshot()
	}
	return v
}

// Point is one (x, y) sample of a figure series, e.g. x = number of clients,
// y = mean processing time in paper seconds.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points — one curve of a paper figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// YAt returns the Y value at the given X, with ok=false when absent.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// MinY returns the point with the smallest Y, or a zero Point if empty.
func (s *Series) MinY() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if p.Y < best.Y {
			best = p
		}
	}
	return best
}

// Table renders a set of series as a fixed-width text table with one row per
// distinct X (sorted ascending), suitable for experiment output mirroring
// the paper's tables.
func Table(xLabel string, series ...*Series) string {
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%14s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-14g", x)
		for _, s := range series {
			if y, ok := s.YAt(x); ok {
				fmt.Fprintf(&b, "%14.3f", y)
			} else {
				fmt.Fprintf(&b, "%14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Stopwatch converts wall-clock durations to "paper seconds" given a scale
// (wall time per paper second). It lets the experiment harness report
// numbers in the paper's units regardless of the time compression in use.
type Stopwatch struct {
	Scale time.Duration // wall time representing one paper second
}

// PaperSeconds converts a wall duration to paper seconds.
func (s Stopwatch) PaperSeconds(d time.Duration) float64 {
	if s.Scale <= 0 {
		return d.Seconds()
	}
	return float64(d) / float64(s.Scale)
}

// Wall converts paper seconds to a wall duration.
func (s Stopwatch) Wall(paperSeconds float64) time.Duration {
	if s.Scale <= 0 {
		return time.Duration(paperSeconds * float64(time.Second))
	}
	return time.Duration(paperSeconds * float64(s.Scale))
}
