package resilience

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// breakerModel is the reference the breaker is checked against: the three
// states and their rules spelled out directly.
type breakerModel struct {
	threshold int
	cooldown  time.Duration
	sn        Snapshot // what Snapshot must return
	probing   bool
	moves     []State // every transition's target, in order
}

func (m *breakerModel) to(s State, now time.Time) {
	if s == StateOpen {
		m.sn.Opens++
		m.probing = false
	}
	m.sn.State, m.sn.LastTransition = s, now
	m.moves = append(m.moves, s)
}

func (m *breakerModel) candidate(now time.Time) bool {
	switch m.sn.State {
	case StateClosed:
		return true
	case StateOpen:
		return now.Sub(m.sn.LastTransition) >= m.cooldown
	}
	return !m.probing
}

func (m *breakerModel) acquire(now time.Time) bool {
	if !m.candidate(now) {
		return false
	}
	if m.sn.State == StateOpen {
		m.to(StateHalfOpen, now)
	}
	m.probing = m.probing || m.sn.State == StateHalfOpen
	return true
}

func (m *breakerModel) done(err error, now time.Time) {
	fail := err != nil && !errors.Is(err, context.Canceled)
	if err == nil {
		m.sn.Successes++
	} else {
		m.sn.Failures++
	}
	switch m.sn.State {
	case StateClosed:
		if fail {
			if m.sn.ConsecutiveFailures++; m.sn.ConsecutiveFailures >= m.threshold {
				m.to(StateOpen, now)
			}
		} else if err == nil {
			m.sn.ConsecutiveFailures = 0
		}
	case StateHalfOpen:
		m.probing = false
		if fail {
			m.to(StateOpen, now)
		} else if err == nil {
			m.to(StateClosed, now)
			m.sn.ConsecutiveFailures = 0
		}
	}
}

// TestBreakerAgainstModel drives seeded schedules of Acquire, Done (with a
// nil, a failing or a neutral error) and clock advances through a breaker and
// the model side by side, comparing every observable after every step. An
// open breaker admits one half-open probe at a time and nothing else.
func TestBreakerAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		runBreakerSchedule(t, seed)
	}
}

func runBreakerSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	clk := newFakeClock()
	m := &breakerModel{threshold: 1 + rng.Intn(4), cooldown: time.Duration(1+rng.Intn(3)) * time.Second}
	m.sn.Name = "r0"
	var moves []State
	b := NewBreaker("r0", BreakerConfig{
		FailureThreshold: m.threshold, Cooldown: m.cooldown, Clock: clk.now,
		OnTransition: func(_, to State) { moves = append(moves, to) },
	})
	errs := []error{nil, errors.New("backend down"), context.Canceled}
	inFlight := 0 // acquired, Done not yet called

	steps := 100 + rng.Intn(200)
	for ; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 40:
			was := m.sn.State
			got, want := b.Acquire(), m.acquire(clk.now())
			if got != want {
				fail("Acquire = %v in %v, model %v", got, was, want)
			}
			if got {
				inFlight++
			}
			if got && was != StateClosed && b.Candidate() {
				fail("a second probe may start while one is in flight")
			}
		case op < 80:
			if inFlight == 0 {
				break
			}
			err := errs[rng.Intn(len(errs))]
			b.Done(err)
			m.done(err, clk.now())
			inFlight--
		default:
			clk.advance(time.Duration(rng.Int63n(int64(m.cooldown))))
		}
		if got := b.State(); got != m.sn.State {
			fail("State = %v, model %v", got, m.sn.State)
		}
		if got, want := b.Candidate(), m.candidate(clk.now()); got != want {
			fail("Candidate = %v in %v, model %v", got, m.sn.State, want)
		}
		if got := b.Snapshot(); got != m.sn {
			fail("Snapshot = %+v, model %+v", got, m.sn)
		}
		if !slices.Equal(moves, m.moves) {
			fail("transitions %v, model %v", moves, m.moves)
		}
	}
}
