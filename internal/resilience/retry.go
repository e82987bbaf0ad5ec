// Package resilience implements the fault-tolerance primitives the broker
// uses to shield front-end processes from backend trouble (paper §III): a
// Retryer (capped exponential backoff with deterministic jitter and a
// per-request deadline budget), error classification separating transient
// transport faults from permanent payload errors, and a per-replica circuit
// Breaker (closed/open/half-open) that lets the load balancer fail over away
// from unhealthy replicas and probe them back in.
//
// The package is stdlib-only and fully deterministic under test: jitter is
// seeded and the breaker reads package clock.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// ErrorClass partitions failures for the retry decision.
type ErrorClass int

const (
	// ClassRetryable marks transient transport or connect failures: a
	// fresh attempt (possibly against another replica) may succeed.
	ClassRetryable ErrorClass = iota + 1
	// ClassPermanent marks payload or protocol errors (bad query syntax,
	// unknown command): repeating the identical request cannot succeed.
	ClassPermanent
)

// String names the class.
func (c ErrorClass) String() string {
	switch c {
	case ClassRetryable:
		return "retryable"
	case ClassPermanent:
		return "permanent"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as non-retryable. Backend connectors wrap payload
// errors (bad command syntax, 4xx statuses) so the broker does not burn its
// retry budget repeating a request that can never succeed. Permanent(nil)
// returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Classify is the retry classifier: errors marked Permanent and
// context errors (the caller's budget is gone) are permanent; everything
// else — connection resets, refused connects, injected faults, simulated
// drops — is presumed a transient transport failure and retryable.
func Classify(err error) ErrorClass {
	if err == nil || IsPermanent(err) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassPermanent
	}
	return ClassRetryable
}

// CountsAsBreakerFailure reports whether err should count against a
// replica's circuit breaker. Transport-class errors and per-attempt
// timeouts do; caller cancellation and permanent payload errors (the
// replica answered, just not usefully) do not.
func CountsAsBreakerFailure(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || IsPermanent(err) {
		return false
	}
	return true
}

// RetryConfig parameterizes a Retryer. Zero fields select the defaults
// noted on each field.
type RetryConfig struct {
	// MaxAttempts is the total number of tries including the first;
	// values ≤ 0 default to 3. MaxAttempts of 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 10ms).
	BaseDelay time.Duration
	// Seed makes the jitter stream deterministic; 0 selects a fixed
	// default so runs are reproducible by default.
	Seed int64
}

// maxDelay caps the backoff, which doubles per failed attempt.
const maxDelay = time.Second

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 10 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Retryer repeats failed operations under capped exponential backoff with
// deterministic jitter, honoring the caller's context deadline as a hard
// budget: it never starts a wait that would outlive the deadline. Safe for
// concurrent use.
type Retryer struct {
	cfg RetryConfig

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetryer returns a Retryer for cfg (zero fields take defaults).
func NewRetryer(cfg RetryConfig) *Retryer {
	cfg = cfg.withDefaults()
	return &Retryer{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// MaxAttempts returns the effective attempt bound.
func (r *Retryer) MaxAttempts() int { return r.cfg.MaxAttempts }

// Backoff returns the wait after the attempt-th failure (1-based):
// min(maxDelay, BaseDelay·2^(attempt-1)) scaled by a jitter factor
// in [0.5, 1] drawn from the seeded stream.
func (r *Retryer) Backoff(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := float64(r.cfg.BaseDelay) * math.Pow(2, float64(attempt-1))
	if d > float64(maxDelay) {
		d = float64(maxDelay)
	}
	r.mu.Lock()
	f := 0.5 + 0.5*r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(d * f)
}

// Do runs op until it succeeds, the attempt budget is spent, the error is
// permanent, or the context's deadline cannot fit another backoff wait. It
// returns op's result, the number of attempts made, and the final error.
// notify, when non-nil, is invoked after each backoff wait and before the
// next attempt with the upcoming attempt number, the time just waited, and
// the error that caused the retry.
func (r *Retryer) Do(ctx context.Context, op func(context.Context) ([]byte, error),
	notify func(attempt int, waited time.Duration, cause error)) ([]byte, int, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return nil, attempt - 1, lastErr
		}
		body, err := op(ctx)
		if err == nil {
			return body, attempt, nil
		}
		lastErr = err
		if attempt >= r.cfg.MaxAttempts || Classify(err) == ClassPermanent {
			return nil, attempt, err
		}
		wait := r.Backoff(attempt)
		if deadline, ok := ctx.Deadline(); ok && wait >= time.Until(deadline) {
			// The deadline budget cannot fit another wait + attempt.
			return nil, attempt, fmt.Errorf("resilience: retry budget exhausted after %d attempts: %w", attempt, err)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, attempt, err
		}
		if notify != nil {
			notify(attempt+1, wait, err)
		}
	}
}
