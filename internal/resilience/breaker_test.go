package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"servicebroker/internal/testutil"
)

func attempt(b *Breaker, err error) (acquired bool) {
	if !b.Acquire() {
		return false
	}
	b.Done(err)
	return true
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	testutil.FakeClock(t)
	b := NewBreaker("r0", BreakerConfig{FailureThreshold: 3, Cooldown: time.Second})
	fail := errors.New("reset")
	for i := 0; i < 2; i++ {
		if !attempt(b, fail) {
			t.Fatalf("attempt %d rejected while closed", i)
		}
		if b.State() != StateClosed {
			t.Fatalf("opened after %d failures, threshold 3", i+1)
		}
	}
	if !attempt(b, fail) {
		t.Fatal("third attempt rejected")
	}
	if b.State() != StateOpen {
		t.Fatalf("state = %v after threshold failures, want open", b.State())
	}
	if b.Acquire() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b := NewBreaker("r0", BreakerConfig{FailureThreshold: 2})
	fail := errors.New("reset")
	attempt(b, fail)
	attempt(b, nil) // resets the consecutive count
	attempt(b, fail)
	if b.State() != StateClosed {
		t.Fatalf("state = %v, want closed (failures not consecutive)", b.State())
	}
	attempt(b, fail)
	if b.State() != StateOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
}

func TestBreakerHalfOpenProbeClosesOnSuccess(t *testing.T) {
	advance := testutil.FakeClock(t)
	var transitions []State
	b := NewBreaker("r0", BreakerConfig{
		FailureThreshold: 1, Cooldown: time.Second,
		OnTransition: func(_, to State) { transitions = append(transitions, to) },
	})
	attempt(b, errors.New("reset"))
	if b.State() != StateOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if b.Candidate() {
		t.Fatal("open breaker is a candidate before cooldown")
	}
	advance(time.Second)
	if !b.Candidate() {
		t.Fatal("cooled-down breaker should be a probe candidate")
	}
	if !b.Acquire() {
		t.Fatal("cooled-down breaker rejected the probe")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Acquire() {
		t.Fatal("second concurrent probe admitted")
	}
	b.Done(nil)
	if b.State() != StateClosed {
		t.Fatalf("state = %v after successful probe, want closed", b.State())
	}
	want := []State{StateOpen, StateHalfOpen, StateClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestBreakerHalfOpenProbeReopensOnFailure(t *testing.T) {
	advance := testutil.FakeClock(t)
	b := NewBreaker("r0", BreakerConfig{FailureThreshold: 1, Cooldown: time.Second})
	attempt(b, errors.New("reset"))
	advance(time.Second)
	if !b.Acquire() {
		t.Fatal("probe rejected")
	}
	b.Done(errors.New("still down"))
	if b.State() != StateOpen {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	// The fresh open period restarts the cooldown.
	if b.Acquire() {
		t.Fatal("reopened breaker admitted a request immediately")
	}
	snap := b.Snapshot()
	if snap.Opens != 2 {
		t.Fatalf("opens = %d, want 2", snap.Opens)
	}
}

func TestBreakerNeutralOutcomes(t *testing.T) {
	advance := testutil.FakeClock(t)
	b := NewBreaker("r0", BreakerConfig{FailureThreshold: 1, Cooldown: time.Second})
	// Caller cancellation while closed neither trips nor resets.
	attempt(b, context.Canceled)
	if b.State() != StateClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
	attempt(b, errors.New("reset"))
	advance(time.Second)
	if !b.Acquire() {
		t.Fatal("probe rejected")
	}
	b.Done(context.Canceled) // neutral probe: stay half-open
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v after cancelled probe, want half-open", b.State())
	}
	if !b.Acquire() {
		t.Fatal("probe slot not released by the neutral outcome")
	}
	b.Done(nil)
	if b.State() != StateClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

func TestBreakerSnapshot(t *testing.T) {
	b := NewBreaker("db#1", BreakerConfig{FailureThreshold: 2})
	attempt(b, nil)
	attempt(b, errors.New("reset"))
	snap := b.Snapshot()
	if snap.Name != "db#1" || snap.State != StateClosed {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Successes != 1 || snap.Failures != 1 || snap.ConsecutiveFailures != 1 || snap.Opens != 0 {
		t.Fatalf("snapshot counters = %+v", snap)
	}
	if !snap.LastTransition.IsZero() {
		t.Fatalf("LastTransition = %v, want zero (never transitioned)", snap.LastTransition)
	}
}
