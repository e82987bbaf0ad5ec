package resilience

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// State is a circuit breaker's position in the classic three-state machine.
type State int

const (
	// StateClosed passes traffic, counting consecutive failures.
	StateClosed State = iota
	// StateHalfOpen admits a bounded number of probe requests after the
	// cooldown; success closes the breaker, failure reopens it.
	StateHalfOpen
	// StateOpen rejects traffic until the cooldown elapses.
	StateOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	case StateOpen:
		return "open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BreakerConfig parameterizes a Breaker. Zero fields select the defaults
// noted on each field.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips a
	// closed breaker open (default 5).
	FailureThreshold int
	// Cooldown is how long an open breaker rejects traffic before
	// admitting half-open probes (default 1s).
	Cooldown time.Duration
	// Clock overrides the time source, for deterministic tests.
	Clock func() time.Time
	// OnTransition, when non-nil, is called after every state change.
	// It runs outside the breaker's lock but must not block; it may be
	// invoked while a caller (e.g. a ReplicaSet) holds its own locks, so
	// it must not call back into the component that owns the breaker.
	OnTransition func(from, to State)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Snapshot is a point-in-time view of one breaker, rendered by /breakerz.
type Snapshot struct {
	Name                string
	State               State
	ConsecutiveFailures int
	Successes           int64
	Failures            int64
	Opens               int64
	LastTransition      time.Time // zero if the breaker never transitioned
}

// WriteRow renders the snapshot as one /breakerz row for a service.
func (sn Snapshot) WriteRow(w io.Writer, service string) {
	fmt.Fprintf(w, "service=%s replica=%s state=%s consecutive_failures=%d successes=%d failures=%d opens=%d",
		service, sn.Name, sn.State, sn.ConsecutiveFailures, sn.Successes, sn.Failures, sn.Opens)
	if !sn.LastTransition.IsZero() {
		fmt.Fprintf(w, " last_transition=%s", sn.LastTransition.Format(time.RFC3339Nano))
	}
	fmt.Fprintln(w)
}

// Breaker is one replica's circuit breaker. Use NewBreaker; all methods are
// safe for concurrent use.
//
// The request lifecycle is Acquire (may the attempt proceed?) followed by
// exactly one Done(err) per successful Acquire. Errors are weighed by
// CountsAsBreakerFailure, so caller cancellations and permanent payload
// errors never trip the breaker.
type Breaker struct {
	name string
	cfg  BreakerConfig

	mu         sync.Mutex
	state      State
	failures   int  // consecutive, while closed
	probing    bool // the one half-open probe is in flight
	lastChange time.Time
	opens      int64
	totalOK    int64
	totalFail  int64
}

// NewBreaker returns a closed breaker named name (zero cfg fields take
// defaults).
func NewBreaker(name string, cfg BreakerConfig) *Breaker {
	return &Breaker{name: name, cfg: cfg.withDefaults()}
}

// Name returns the breaker's replica label.
func (b *Breaker) Name() string { return b.name }

// State returns the current state, accounting for an elapsed cooldown only
// when a request actually probes (Acquire) — an idle open breaker reports
// open until someone tries it.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Candidate reports, without changing state, whether a request may be
// attempted now: closed, half-open with no probe in flight, or open with
// the cooldown elapsed.
func (b *Breaker) Candidate() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		return b.cfg.Clock().Sub(b.lastChange) >= b.cfg.Cooldown
	default:
		return !b.probing
	}
}

// Acquire asks to attempt one request. An open breaker whose cooldown has
// elapsed transitions to half-open and admits the caller as a probe. Every
// true return must be matched by one Done call.
func (b *Breaker) Acquire() bool {
	var fire func()
	b.mu.Lock()
	ok := false
	switch b.state {
	case StateClosed:
		ok = true
	case StateOpen:
		if b.cfg.Clock().Sub(b.lastChange) >= b.cfg.Cooldown {
			fire = b.transitionLocked(StateHalfOpen)
			b.probing = true
			ok = true
		}
	case StateHalfOpen:
		if !b.probing {
			b.probing = true
			ok = true
		}
	}
	b.mu.Unlock()
	if fire != nil {
		fire()
	}
	return ok
}

// Done reports the outcome of an acquired attempt and drives the state
// machine: threshold consecutive failures open a closed breaker; a failed
// probe reopens a half-open one; a successful probe closes it.
func (b *Breaker) Done(err error) {
	fail := CountsAsBreakerFailure(err)
	var fire func()
	b.mu.Lock()
	if err == nil {
		b.totalOK++
	} else {
		b.totalFail++
	}
	switch b.state {
	case StateClosed:
		if fail {
			b.failures++
			if b.failures >= b.cfg.FailureThreshold {
				fire = b.openLocked()
			}
		} else if err == nil {
			b.failures = 0
		}
	case StateHalfOpen:
		b.probing = false
		switch {
		case fail:
			fire = b.openLocked()
		case err == nil:
			fire = b.transitionLocked(StateClosed)
			b.failures = 0
		}
		// A cancelled probe is neutral: neither closes nor reopens.
	case StateOpen:
		// A straggler that was in flight when the breaker tripped; it
		// only updates the totals.
	}
	b.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// Snapshot returns the breaker's current counters and state.
func (b *Breaker) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Snapshot{
		Name:                b.name,
		State:               b.state,
		ConsecutiveFailures: b.failures,
		Successes:           b.totalOK,
		Failures:            b.totalFail,
		Opens:               b.opens,
		LastTransition:      b.lastChange,
	}
}

// openLocked trips the breaker open. Caller holds b.mu.
func (b *Breaker) openLocked() func() {
	fire := b.transitionLocked(StateOpen)
	b.opens++
	b.probing = false
	return fire
}

// transitionLocked moves to state `to`, returning the deferred OnTransition
// call (nil when no callback is registered). Caller holds b.mu.
func (b *Breaker) transitionLocked(to State) func() {
	from := b.state
	b.state = to
	b.lastChange = b.cfg.Clock()
	if b.cfg.OnTransition == nil || from == to {
		return nil
	}
	cb := b.cfg.OnTransition
	return func() { cb(from, to) }
}

// Config bundles the whole fault-tolerance policy a broker applies to its
// backend access path.
type Config struct {
	// Retry parameterizes the per-request retry loop.
	Retry RetryConfig
	// Breaker parameterizes the circuit breaker every replica of a
	// replicated broker carries (zero fields take the defaults, also when
	// the broker has no Config at all). A single-connector broker has no
	// breaker.
	Breaker BreakerConfig
	// ServeStale lets the broker answer with an expired cache entry at
	// low fidelity when retries and replicas are exhausted — the paper's
	// immediate "low-fidelity message" instead of an error.
	ServeStale bool
}
