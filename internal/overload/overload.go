// Package overload implements self-tuning admission control for service
// brokers. The paper's binary forward/drop rule needs a threshold the
// operator must guess; under a workload shift a static guess either sheds
// healthy traffic or lets the backend melt down before anything is shed.
// This package replaces the guess with a measured value: an AIMD
// concurrency limiter in the spirit of TCP congestion control (and of
// Netflix's concurrency-limits library) that raises the effective
// threshold additively while completions come back healthy and cuts it
// multiplicatively the moment the backend shows congestion — a latency
// budget breached, a deadline missed, a circuit breaker opening.
//
// The limiter is deliberately tiny: one float under a mutex, no
// goroutines, signals pushed by the broker's completion path. Brokers
// carry the current limit in their LoadReport, so the centralized front
// end's admission control adapts for free.
package overload

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// backoff is the multiplicative cut factor. The additive raise is one per
// limit's worth of healthy completions: each adds 1/limit, one step per
// "round trip" of the pipeline.
const backoff = 0.7

// Config parameterizes a Limiter. The zero value is not usable; call
// (Config).withDefaults via NewLimiter.
type Config struct {
	// Min and Max clamp the limit. Min defaults to 1; Max defaults to
	// 1024. The limiter never admits less than Min outstanding requests,
	// so progress is always possible (Min plays the role of TCP's minimum
	// congestion window).
	Min, Max int
	// Initial is the starting limit; it defaults to Max, modelling an
	// operator who guessed generously and lets measurement pull the value
	// down to what the backend actually sustains.
	Initial int
	// LatencyTarget is the healthy-completion budget: a completion slower
	// than this is treated as a congestion signal even when it succeeded.
	// Zero disables latency-based cutting (only failures cut).
	LatencyTarget time.Duration
	// CutWindow rate-limits multiplicative cuts: congestion signals inside
	// the window after a cut are counted but do not cut again, so one slow
	// burst (which congests every in-flight request at once) costs one
	// cut, not one per request. Defaults to 100ms.
	CutWindow time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 1024
	}
	if c.Max < c.Min {
		return c, fmt.Errorf("overload: Max %d < Min %d", c.Max, c.Min)
	}
	if c.Initial <= 0 {
		c.Initial = c.Max
	}
	if c.Initial < c.Min {
		c.Initial = c.Min
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.CutWindow <= 0 {
		c.CutWindow = 100 * time.Millisecond
	}
	return c, nil
}

// Limiter is the AIMD concurrency limiter. It is safe for concurrent use.
type Limiter struct {
	mu    sync.Mutex
	cfg   Config
	limit float64
	now   func() time.Time

	lastCut   time.Time
	healthy   int64 // completions under the latency target
	breaches  int64 // congestion signals observed (latency, failure, external)
	cuts      int64 // multiplicative decreases applied
	onChange  func(int)
	lastLimit int
}

// NewLimiter builds a limiter from cfg, applying defaults. It returns an
// error only for inconsistent bounds (Max < Min).
func NewLimiter(cfg Config) (*Limiter, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	l := &Limiter{cfg: cfg, limit: float64(cfg.Initial), now: time.Now}
	l.lastLimit = cfg.Initial
	return l, nil
}

// SetClock overrides the limiter's time source (deterministic tests).
func (l *Limiter) SetClock(now func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
}

// OnChange registers a callback invoked (under the limiter's lock, keep it
// cheap — a gauge store) whenever the integer limit changes.
func (l *Limiter) OnChange(fn func(limit int)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onChange = fn
}

// Limit returns the current admission limit.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.limit)
}

// Observe feeds one completed backend access into the controller. ok is
// false for failed accesses (errors, exhausted retries); latency is the
// measured backend time. A healthy completion raises the limit additively;
// a failure or a latency-target breach cuts it multiplicatively (at most
// once per CutWindow).
func (l *Limiter) Observe(latency time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	congested := !ok || (l.cfg.LatencyTarget > 0 && latency > l.cfg.LatencyTarget)
	if congested {
		l.cutLocked()
		return
	}
	l.healthy++
	l.limit += 1 / l.limit
	if max := float64(l.cfg.Max); l.limit > max {
		l.limit = max
	}
	l.notifyLocked()
}

// Overload feeds an out-of-band congestion signal: a circuit breaker
// opening, or a request expiring in queue. It cuts
// the limit under the same CutWindow rate limit as Observe.
func (l *Limiter) Overload() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cutLocked()
}

// cutLocked applies one multiplicative decrease, rate-limited by
// CutWindow. Caller holds l.mu.
func (l *Limiter) cutLocked() {
	l.breaches++
	now := l.now()
	if !l.lastCut.IsZero() && now.Sub(l.lastCut) < l.cfg.CutWindow {
		return
	}
	l.lastCut = now
	l.cuts++
	l.limit *= backoff
	if min := float64(l.cfg.Min); l.limit < min {
		l.limit = min
	}
	l.notifyLocked()
}

// notifyLocked fires the change callback when the integer limit moved.
func (l *Limiter) notifyLocked() {
	n := int(l.limit)
	if n != l.lastLimit {
		l.lastLimit = n
		if l.onChange != nil {
			l.onChange(n)
		}
	}
}

// Snapshot is a point-in-time view of a limiter, rendered by /limitz.
type Snapshot struct {
	Limit    int
	Min, Max int
	// Target is the configured latency budget (0 when disabled).
	Target time.Duration
	// Healthy counts completions that raised the limit; Breaches counts
	// congestion signals; Cuts counts multiplicative decreases actually
	// applied (breaches inside one CutWindow coalesce into one cut).
	Healthy, Breaches, Cuts int64
	// LastCut is the time of the most recent cut (zero when none).
	LastCut time.Time
}

// WriteRow renders the snapshot as one /limitz row for a service.
func (sn Snapshot) WriteRow(w io.Writer, service string) {
	fmt.Fprintf(w, "service=%s limit=%d min=%d max=%d target=%s healthy=%d breaches=%d cuts=%d",
		service, sn.Limit, sn.Min, sn.Max, sn.Target, sn.Healthy, sn.Breaches, sn.Cuts)
	if !sn.LastCut.IsZero() {
		fmt.Fprintf(w, " last_cut=%s", sn.LastCut.Format(time.RFC3339Nano))
	}
	fmt.Fprintln(w)
}

// Snapshot returns the limiter's current state.
func (l *Limiter) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Snapshot{
		Limit:    int(l.limit),
		Min:      l.cfg.Min,
		Max:      l.cfg.Max,
		Target:   l.cfg.LatencyTarget,
		Healthy:  l.healthy,
		Breaches: l.breaches,
		Cuts:     l.cuts,
		LastCut:  l.lastCut,
	}
}
