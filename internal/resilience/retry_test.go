package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	base := errors.New("connection reset")
	if got := Classify(base); got != ClassRetryable {
		t.Fatalf("Classify(transport) = %v, want retryable", got)
	}
	if got := Classify(Permanent(base)); got != ClassPermanent {
		t.Fatalf("Classify(Permanent) = %v, want permanent", got)
	}
	if got := Classify(fmt.Errorf("wrap: %w", Permanent(base))); got != ClassPermanent {
		t.Fatalf("Classify(wrapped Permanent) = %v, want permanent", got)
	}
	if got := Classify(context.Canceled); got != ClassPermanent {
		t.Fatalf("Classify(Canceled) = %v, want permanent", got)
	}
	if got := Classify(context.DeadlineExceeded); got != ClassPermanent {
		t.Fatalf("Classify(DeadlineExceeded) = %v, want permanent", got)
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

func TestCountsAsBreakerFailure(t *testing.T) {
	if !CountsAsBreakerFailure(errors.New("reset")) {
		t.Fatal("transport error should count")
	}
	if !CountsAsBreakerFailure(context.DeadlineExceeded) {
		t.Fatal("attempt timeout should count")
	}
	if CountsAsBreakerFailure(context.Canceled) {
		t.Fatal("caller cancellation should not count")
	}
	if CountsAsBreakerFailure(Permanent(errors.New("bad query"))) {
		t.Fatal("permanent payload error should not count")
	}
	if CountsAsBreakerFailure(nil) {
		t.Fatal("nil should not count")
	}
}

func TestRetryerSucceedsAfterTransientFailures(t *testing.T) {
	r := NewRetryer(RetryConfig{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 1})
	calls := 0
	body, attempts, err := r.Do(context.Background(), func(context.Context) ([]byte, error) {
		calls++
		if calls < 3 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}, nil)
	if err != nil || string(body) != "ok" {
		t.Fatalf("Do = %q, %v", body, err)
	}
	if attempts != 3 || calls != 3 {
		t.Fatalf("attempts = %d, calls = %d, want 3", attempts, calls)
	}
}

func TestRetryerStopsOnPermanent(t *testing.T) {
	r := NewRetryer(RetryConfig{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1})
	calls := 0
	_, attempts, err := r.Do(context.Background(), func(context.Context) ([]byte, error) {
		calls++
		return nil, Permanent(errors.New("bad payload"))
	}, nil)
	if err == nil || attempts != 1 || calls != 1 {
		t.Fatalf("attempts = %d, calls = %d, err = %v; want one attempt", attempts, calls, err)
	}
}

func TestRetryerExhaustsAttempts(t *testing.T) {
	r := NewRetryer(RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1})
	var notified []int
	calls := 0
	_, attempts, err := r.Do(context.Background(), func(context.Context) ([]byte, error) {
		calls++
		return nil, errors.New("transient")
	}, func(attempt int, waited time.Duration, cause error) {
		if waited <= 0 || cause == nil {
			t.Errorf("notify(%d): waited=%v cause=%v", attempt, waited, cause)
		}
		notified = append(notified, attempt)
	})
	if err == nil || attempts != 3 || calls != 3 {
		t.Fatalf("attempts = %d, calls = %d, err = %v; want 3 attempts and error", attempts, calls, err)
	}
	if len(notified) != 2 || notified[0] != 2 || notified[1] != 3 {
		t.Fatalf("notified = %v, want [2 3]", notified)
	}
}

func TestRetryerHonorsDeadlineBudget(t *testing.T) {
	// Backoff after the first failure is at least 25ms (half of 50ms
	// base), far beyond the 5ms budget: the retryer must give up without
	// sleeping through the deadline.
	r := NewRetryer(RetryConfig{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, attempts, err := r.Do(ctx, func(context.Context) ([]byte, error) {
		return nil, errors.New("transient")
	}, nil)
	if err == nil {
		t.Fatal("want error")
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (budget cannot fit a backoff)", attempts)
	}
	if elapsed := time.Since(start); elapsed > 25*time.Millisecond {
		t.Fatalf("retryer overslept the deadline budget: %v", elapsed)
	}
}

func TestRetryerCancelledContext(t *testing.T) {
	r := NewRetryer(RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, attempts, err := r.Do(ctx, func(context.Context) ([]byte, error) {
		t.Fatal("op must not run with a dead context")
		return nil, nil
	}, nil)
	if attempts != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("attempts = %d, err = %v", attempts, err)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	cfg := RetryConfig{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, Seed: 7}
	a, b := NewRetryer(cfg), NewRetryer(cfg)
	for attempt := 1; attempt <= 8; attempt++ {
		da, db := a.Backoff(attempt), b.Backoff(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed produced %v vs %v", attempt, da, db)
		}
		if da > maxDelay {
			t.Fatalf("attempt %d: backoff %v exceeds cap", attempt, da)
		}
		if da < 5*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v below half the base", attempt, da)
		}
	}
}
