// Package trace provides the end-to-end request tracing layer of the
// service-broker framework. A 64-bit trace ID is assigned where a request
// enters the system (normally the front-end web server), carried across the
// UDP wire protocol to the broker, and annotated at every stage of the
// brokered access path:
//
//	wire     the front end's call to the broker gateway (UDP round trip)
//	queue    time spent waiting in the broker's priority queue
//	cache    the result-cache lookup (hit or miss)
//	cluster  waiting for / executing a clustered (batched) backend access
//	backend  one direct backend request/response exchange
//	retry    a backoff wait between failed backend attempts
//
// Completed traces land in a bounded Ring so an admin endpoint (/tracez,
// package obs) can show the recent request history with per-stage latency
// breakdowns, and per-service/per-stage/per-class durations are aggregated
// into a metrics.Registry for scraping.
//
// The package is stdlib-only and race-clean: an Active trace may be
// annotated from several goroutines (the broker's Handle path and its worker
// pool touch the same trace).
package trace

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/metrics"
)

// ctxKey keys the Active carried through a context.Context.
type ctxKey struct{}

// NewContext returns ctx carrying a, so layers below the one that started
// the trace (the frontend pool's failover loop, notably) can annotate it
// without threading an explicit parameter through every signature.
func NewContext(ctx context.Context, a *Active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, a)
}

// FromContext returns the Active carried by ctx, or nil when the request is
// untraced. All Active methods are nil-safe, so callers may annotate the
// result unconditionally.
func FromContext(ctx context.Context) *Active {
	a, _ := ctx.Value(ctxKey{}).(*Active)
	return a
}

// ID is a 64-bit trace identifier. The zero value means "no trace" and is
// never returned by NewID.
type ID uint64

// idState seeds the process-local ID generator. The counter is mixed through
// a SplitMix64 finalizer so consecutive IDs are well distributed even though
// allocation is a single atomic add.
var idState = func() *atomic.Uint64 {
	var v atomic.Uint64
	v.Store(uint64(time.Now().UnixNano()))
	return &v
}()

// NewID returns a new nonzero trace ID, unique within the process and
// unlikely to collide across processes.
func NewID() ID {
	for {
		x := mix64(idState.Add(0x9e3779b97f4a7c15))
		if x != 0 {
			return ID(x)
		}
	}
}

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit hash
// used for ID generation and the sampler's deterministic keep decision.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// String renders the ID as 16 lowercase hex digits (zero-padded).
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Stage names one segment of the brokered request path.
type Stage string

// The canonical stages annotated by the framework.
const (
	StageWire    Stage = "wire"
	StageQueue   Stage = "queue"
	StageCache   Stage = "cache"
	StageCluster Stage = "cluster"
	StageBackend Stage = "backend"
	// StageRetry covers one backoff wait between failed backend attempts;
	// its note carries the upcoming attempt number and the causing error.
	StageRetry Stage = "retry"
	// StageFailover covers the frontend pool's hop from a failed member to
	// the next candidate; its note carries the failed member's address and
	// the error that caused the hop, so a stitched cross-broker trace shows
	// where and why the request moved.
	StageFailover Stage = "failover"
	// StageCoalesce covers a request's wait behind an identical in-flight
	// query (broker.WithCoalescing): the duplicate shares the first
	// execution's answer instead of spending a backend trip of its own.
	StageCoalesce Stage = "coalesce"
)

// Span is one timed stage within a trace.
type Span struct {
	Stage Stage
	// Note carries a stage-specific annotation ("hit", "miss", a drop
	// reason, a batch size, ...). May be empty.
	Note string
	// Broker identifies the pool member whose recorder produced the span,
	// for spans merged from a remote broker's wire export — the identity
	// that lets /tracez stitch a failed-over request's attempts on several
	// brokers into one tree. Empty for locally recorded spans.
	Broker string
	Start  time.Time
	End    time.Time
}

// Duration returns the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Trace is one completed request's record.
type Trace struct {
	ID      ID
	Service string
	Class   int
	Status  string
	// Note carries a trace-level annotation (e.g. the broker's drop
	// reason). May be empty.
	Note  string
	Start time.Time
	End   time.Time
	Spans []Span
}

// Duration returns the trace's total elapsed time.
func (t Trace) Duration() time.Duration { return t.End.Sub(t.Start) }

// Active is a trace under construction. It is safe for concurrent
// annotation; call Finish exactly once when the request completes.
type Active struct {
	rec *Recorder

	mu       sync.Mutex
	t        Trace
	finished bool
}

// Recorder owns the ring of completed traces and the metric aggregation.
// A single Recorder is typically shared by every traced component in a
// process (all brokers behind a gateway, plus the front end). The zero value
// is not usable; call NewRecorder.
type Recorder struct {
	ring    *Ring
	reg     *metrics.Registry
	sampler *Sampler

	sampled   atomic.Uint64
	discarded atomic.Uint64

	// Export buffer: recently finished traces held for a remote collector
	// (the wire gateway ships them back to the front end). Bounded FIFO so
	// traces nobody collects cannot grow memory.
	expMu    sync.Mutex
	exports  map[ID]Trace
	expOrder []ID
	expCap   int
}

// RecorderOption configures a Recorder.
type RecorderOption func(*Recorder)

// WithMetrics aggregates per-stage durations into reg under names
// "trace.<service>.<stage>" (histogram), "trace.<service>.<stage>.class_<c>"
// (histogram), and "trace.<service>.finished" / ".finished_<status>"
// (counters). Stage histograms carry the finishing trace's ID as a bucket
// exemplar, and the sampling/eviction accounting pair
// ("trace_sampled_total", "trace_discarded_total", "trace_ring_evicted_total")
// is maintained here too.
func WithMetrics(reg *metrics.Registry) RecorderOption {
	return func(r *Recorder) { r.reg = reg }
}

// WithSampler applies tail sampling to ring retention. Metric aggregation
// and the export buffer still see every finished trace — sampling only
// decides what the bounded ring keeps.
func WithSampler(s *Sampler) RecorderOption {
	return func(r *Recorder) { r.sampler = s }
}

// WithExport keeps up to capacity recently finished traces in a take-once
// buffer so a transport (the wire gateway) can ship them to the process that
// started the trace. Capacity ≤ 0 disables exporting.
func WithExport(capacity int) RecorderOption {
	return func(r *Recorder) { r.expCap = capacity }
}

// NewRecorder returns a ready Recorder.
func NewRecorder(opts ...RecorderOption) *Recorder {
	r := &Recorder{ring: NewRing(DefaultRingCapacity)}
	for _, o := range opts {
		o(r)
	}
	if r.expCap > 0 {
		r.exports = make(map[ID]Trace, r.expCap)
	}
	return r
}

// Start begins an active trace for one request. A zero id is replaced with a
// fresh one (use the returned Active's ID method to learn it).
func (r *Recorder) Start(id ID, service string, class int) *Active {
	if id == 0 {
		id = NewID()
	}
	return &Active{
		rec: r,
		t: Trace{
			ID:      id,
			Service: service,
			Class:   class,
			Start:   time.Now(),
		},
	}
}

// Snapshot returns recently completed traces, newest first, filtered by f.
func (r *Recorder) Snapshot(f Filter) []Trace { return r.ring.Snapshot(f) }

// Len reports how many completed traces the ring currently holds.
func (r *Recorder) Len() int { return r.ring.Len() }

// Evicted reports how many retained traces the ring has overwritten.
func (r *Recorder) Evicted() uint64 { return r.ring.Evicted() }

// SampleCounts reports how many finished traces the sampler kept vs
// discarded; the two always sum to the total number of Finish calls.
func (r *Recorder) SampleCounts() (sampled, discarded uint64) {
	return r.sampled.Load(), r.discarded.Load()
}

// TakeExport removes and returns the completed trace with the given ID from
// the export buffer. It reports false when the trace was never recorded,
// already taken, or aged out of the bounded buffer.
func (r *Recorder) TakeExport(id ID) (Trace, bool) {
	if r == nil || id == 0 {
		return Trace{}, false
	}
	r.expMu.Lock()
	defer r.expMu.Unlock()
	t, ok := r.exports[id]
	if !ok {
		return Trace{}, false
	}
	delete(r.exports, id)
	for i, v := range r.expOrder {
		if v == id {
			r.expOrder = append(r.expOrder[:i], r.expOrder[i+1:]...)
			break
		}
	}
	return t, true
}

// record is the single sink for finished traces: it stashes the trace for a
// remote collector, applies the tail-sampling decision to ring retention, and
// aggregates stage durations into the registry. Metric aggregation sees every
// trace — sampling only thins what /tracez retains.
func (r *Recorder) record(t Trace) {
	if r.expCap > 0 {
		r.expMu.Lock()
		if _, ok := r.exports[t.ID]; !ok {
			for len(r.expOrder) >= r.expCap {
				delete(r.exports, r.expOrder[0])
				r.expOrder = r.expOrder[1:]
			}
			r.expOrder = append(r.expOrder, t.ID)
		}
		r.exports[t.ID] = t
		r.expMu.Unlock()
	}

	kept := r.sampler.Keep(t)
	evicted := false
	if kept {
		r.sampled.Add(1)
		evicted = r.ring.Put(t)
	} else {
		r.discarded.Add(1)
	}

	if reg := r.reg; reg != nil {
		if kept {
			reg.Counter("trace_sampled_total").Inc()
		} else {
			reg.Counter("trace_discarded_total").Inc()
		}
		if evicted {
			reg.Counter("trace_ring_evicted_total").Inc()
		}
		reg.Counter("trace." + t.Service + ".finished").Inc()
		reg.Counter("trace." + t.Service + ".finished_" + t.Status).Inc()
		for _, sp := range t.Spans {
			d := sp.Duration()
			reg.Histogram("trace."+t.Service+"."+string(sp.Stage)).ObserveTrace(d, uint64(t.ID))
			if t.Class > 0 {
				reg.Histogram(fmt.Sprintf("trace.%s.%s.class_%d", t.Service, sp.Stage, t.Class)).ObserveTrace(d, uint64(t.ID))
			}
		}
	}
}

// ID returns the trace's identifier.
func (a *Active) ID() ID {
	if a == nil {
		return 0
	}
	return a.t.ID
}

// SetStatus records the request's disposition ("ok", "dropped", "error").
func (a *Active) SetStatus(status string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.t.Status = status
	a.mu.Unlock()
}

// SetNote records a trace-level annotation such as a drop reason.
func (a *Active) SetNote(note string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.t.Note = note
	a.mu.Unlock()
}

// Span records one completed stage with explicit bounds.
func (a *Active) Span(stage Stage, start, end time.Time, note string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.t.Spans = append(a.t.Spans, Span{Stage: stage, Note: note, Start: start, End: end})
	a.mu.Unlock()
}

// RemoteSpan records one completed stage imported from a remote broker's
// span export, tagged with that broker's identity so /tracez can attribute
// it when a failed-over request's trace merges spans from several members.
func (a *Active) RemoteSpan(stage Stage, start, end time.Time, note, broker string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.t.Spans = append(a.t.Spans, Span{Stage: stage, Note: note, Broker: broker, Start: start, End: end})
	a.mu.Unlock()
}

// SpanTimer measures one in-progress stage; obtain one with StartSpan and
// finish it with End or EndNote.
type SpanTimer struct {
	a     *Active
	stage Stage
	start time.Time
}

// StartSpan begins timing a stage.
func (a *Active) StartSpan(stage Stage) SpanTimer {
	return SpanTimer{a: a, stage: stage, start: time.Now()}
}

// End records the span with no note and returns its duration.
func (st SpanTimer) End() time.Duration { return st.EndNote("") }

// EndNote records the span with a note and returns its duration.
func (st SpanTimer) EndNote(note string) time.Duration {
	end := time.Now()
	st.a.Span(st.stage, st.start, end, note)
	return end.Sub(st.start)
}

// Finish seals the trace, appends it to the recorder's ring, and aggregates
// its spans into the recorder's registry. Repeated calls are no-ops. Finish
// returns the completed record (copy).
func (a *Active) Finish() Trace {
	if a == nil {
		return Trace{}
	}
	a.mu.Lock()
	if a.finished {
		t := a.t
		a.mu.Unlock()
		return t
	}
	a.finished = true
	a.t.End = time.Now()
	if a.t.Status == "" {
		a.t.Status = "ok"
	}
	t := a.t
	t.Spans = append([]Span(nil), a.t.Spans...)
	a.mu.Unlock()

	a.rec.record(t)
	return t
}

// Filter selects traces from a Ring snapshot. Zero values match everything.
type Filter struct {
	// Service keeps only traces of this service when non-empty.
	Service string
	// Class keeps only traces of this QoS class when positive.
	Class int
	// MinDuration keeps only traces at least this long.
	MinDuration time.Duration
	// Limit caps the number of returned traces (newest first); ≤ 0 means
	// no cap.
	Limit int
}

func (f Filter) matches(t Trace) bool {
	if f.Service != "" && t.Service != f.Service {
		return false
	}
	if f.Class > 0 && t.Class != f.Class {
		return false
	}
	if f.MinDuration > 0 && t.Duration() < f.MinDuration {
		return false
	}
	return true
}

// FormatDuration renders d compactly for /tracez output (3 significant
// digits, never scientific notation).
func FormatDuration(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return trimZeros(float64(d)/float64(time.Microsecond)) + "µs"
	case d < time.Second:
		return trimZeros(float64(d)/float64(time.Millisecond)) + "ms"
	default:
		return trimZeros(d.Seconds()) + "s"
	}
}

func trimZeros(v float64) string {
	s := strconv.FormatFloat(math.Round(v*100)/100, 'f', -1, 64)
	return s
}
