// Package fleet is the fleet event timeline of the observability plane:
// Log, a bounded ring (/eventz) of lease expiry/rejoin, breaker
// transitions, AIMD limit cuts, drain start/stop and journal append
// failures, published through a small hook API that the registry, pool and
// broker call into, with trace-ID links back to /tracez.
//
// The package is stdlib-only and depends only on internal/metrics, so every
// subsystem that wants to publish events can import it without cycles.
package fleet

import (
	"sync"
	"time"

	"servicebroker/internal/metrics"
)

// Kind classifies one fleet event.
type Kind string

// The event kinds published by the framework's subsystems.
const (
	// KindLeaseJoin and friends mirror the registry's membership
	// transitions (package registry's reconcile loop and Apply path).
	KindLeaseJoin    Kind = "lease_join"
	KindLeaseRejoin  Kind = "lease_rejoin"
	KindLeaseExpired Kind = "lease_expired"
	KindLeaseLeave   Kind = "lease_leave"
	// KindBreakerOpen/Close mirror the pool's per-member circuit breakers;
	// the opening event carries the trace ID of the request whose failure
	// tripped it.
	KindBreakerOpen  Kind = "breaker_open"
	KindBreakerClose Kind = "breaker_close"
	// KindFailover marks one failed member attempt that moved on to the
	// next candidate; KindStaleServe marks a pool answering from its
	// last-good cache after exhausting the members.
	KindFailover   Kind = "failover"
	KindStaleServe Kind = "stale_serve"
	// KindLimitCut marks a multiplicative cut of the AIMD admission limit.
	KindLimitCut Kind = "limit_cut"
	// KindDrainStart/Stop bracket a daemon's graceful shutdown; /healthz
	// reports "draining" between them.
	KindDrainStart Kind = "drain_start"
	KindDrainStop  Kind = "drain_stop"
	// KindJournalError marks an idempotency outcome the broker recorded in
	// memory but could not append to its crash-safe journal.
	KindJournalError Kind = "journal_error"
)

// Event is one entry on the fleet timeline.
type Event struct {
	// Seq is the log-assigned sequence number (monotonic per Log).
	Seq uint64
	// At is the publish time; Publish stamps it when zero.
	At   time.Time
	Kind Kind
	// Service names the affected brokered service, when there is one.
	Service string
	// Member identifies the affected pool member (gateway address), when
	// there is one.
	Member string
	// Detail carries kind-specific context (an error, a limit value, a
	// state pair).
	Detail string
	// TraceID links the event to a /tracez record when the triggering
	// request was traced. Zero means no link.
	TraceID uint64
}

// DefaultLogCapacity bounds the event ring when NewLog is given no size.
const DefaultLogCapacity = 512

// Log is a bounded ring of fleet events. Publish never blocks and never
// grows memory: once full, the oldest event is overwritten. All methods are
// safe for concurrent use, and every method is a no-op on a nil *Log so
// event wiring stays optional at every call site.
type Log struct {
	mu      sync.Mutex
	buf     []Event
	next    int // buf index the next event lands in
	n       int // valid events in buf
	seq     uint64
	dropped uint64

	published *metrics.Counter
	droppedC  *metrics.Counter
}

// NewLog builds a Log holding up to capacity events (DefaultLogCapacity when
// capacity <= 0). When reg is non-nil, fleet_events_total and
// fleet_events_dropped_total count publishes and ring overwrites.
func NewLog(capacity int, reg *metrics.Registry) *Log {
	if capacity <= 0 {
		capacity = DefaultLogCapacity
	}
	l := &Log{buf: make([]Event, capacity)}
	if reg != nil {
		l.published = reg.Counter("fleet_events_total")
		l.droppedC = reg.Counter("fleet_events_dropped_total")
	}
	return l
}

// Publish appends one event, stamping At (when zero) and Seq.
func (l *Log) Publish(e Event) {
	if l == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if l.n == len(l.buf) {
		l.dropped++
		if l.droppedC != nil {
			l.droppedC.Inc()
		}
	} else {
		l.n++
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
	l.mu.Unlock()
	if l.published != nil {
		l.published.Inc()
	}
}

// Snapshot returns up to limit retained events, newest first (limit <= 0
// means all retained).
func (l *Log) Snapshot(limit int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		idx := (l.next - 1 - i + 2*len(l.buf)) % len(l.buf)
		out = append(out, l.buf[idx])
	}
	return out
}

// Len reports how many events the ring currently retains.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Dropped reports how many events the bounded ring has overwritten.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}
