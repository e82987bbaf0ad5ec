package backend

import (
	"context"
	"errors"
	"math/rand"
	"sync"
)

// Fault-injection sentinels. Both classify as retryable transport errors.
var (
	// ErrInjected is the failure produced by a FaultConnector's random
	// and fail-first fault modes.
	ErrInjected = errors.New("backend: injected fault")
	// ErrReplicaDown is the failure produced while a FaultConnector is
	// forced down with SetDown, modelling a killed replica.
	ErrReplicaDown = errors.New("backend: replica down")
)

// FaultConnector wraps another Connector with deterministic, seeded fault
// injection so tests and experiments can demonstrate the broker's recovery
// path. Faults are applied in a fixed precedence order per Do call:
//
//  1. forced down (SetDown) — fail with ErrReplicaDown
//  2. fail-first — the first FailFirst Do calls fail with ErrInjected,
//     then the replica recovers
//  3. hang — with probability HangRate, block until the context is done
//  4. error — with probability ErrorRate, fail with ErrInjected
//
// Connect independently fails with probability ConnectFailRate (after the
// forced-down check). The random streams are driven by a single seeded
// generator, so a given configuration and call sequence always produces the
// same faults. Configure the fields before first use; the mutating methods
// (SetDown) are safe at any time.
type FaultConnector struct {
	// Inner is the connector being wrapped.
	Inner Connector
	// Seed drives the fault streams deterministically; 0 selects a fixed
	// default so runs are reproducible by default.
	Seed int64
	// ConnectFailRate is the probability (0..1) that Connect fails.
	ConnectFailRate float64
	// ErrorRate is the probability (0..1) that a Do call fails.
	ErrorRate float64
	// HangRate is the probability (0..1) that a Do call blocks until the
	// caller's context is done, modelling a trapped request.
	HangRate float64
	// FailFirst fails the first FailFirst Do calls, then recovers.
	FailFirst int

	mu       sync.Mutex
	rng      *rand.Rand
	down     bool
	doCalls  int
	failures int
}

var _ Connector = (*FaultConnector)(nil)

// Name implements Connector, delegating to the wrapped connector.
func (f *FaultConnector) Name() string { return f.Inner.Name() }

// SetDown forces the replica dead (every Connect and Do fails with
// ErrReplicaDown) or revives it.
func (f *FaultConnector) SetDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

// Stats reports how many Do calls the connector has seen and how many of
// them were failed or hung by injection.
func (f *FaultConnector) Stats() (doCalls, failures int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.doCalls, f.failures
}

// rngLocked lazily seeds the fault stream. Caller holds f.mu.
func (f *FaultConnector) rngLocked() *rand.Rand {
	if f.rng == nil {
		seed := f.Seed
		if seed == 0 {
			seed = 42
		}
		f.rng = rand.New(rand.NewSource(seed))
	}
	return f.rng
}

// Connect implements Connector, applying the forced-down state and the
// connect-failure rate before dialing the wrapped connector.
func (f *FaultConnector) Connect(ctx context.Context) (Session, error) {
	f.mu.Lock()
	down := f.down
	connFail := f.ConnectFailRate > 0 && f.rngLocked().Float64() < f.ConnectFailRate
	f.mu.Unlock()
	if down {
		return nil, ErrReplicaDown
	}
	if connFail {
		return nil, ErrInjected
	}
	inner, err := f.Inner.Connect(ctx)
	if err != nil {
		return nil, err
	}
	return &faultSession{parent: f, inner: inner}, nil
}

type faultMode int

const (
	faultNone faultMode = iota
	faultDown
	faultError
	faultHang
)

type faultSession struct {
	parent *FaultConnector
	inner  Session
}

func (s *faultSession) Do(ctx context.Context, payload []byte) ([]byte, error) {
	f := s.parent
	f.mu.Lock()
	f.doCalls++
	mode := faultNone
	switch {
	case f.down:
		mode = faultDown
	case f.doCalls <= f.FailFirst:
		mode = faultError
	case f.HangRate > 0 && f.rngLocked().Float64() < f.HangRate:
		mode = faultHang
	case f.ErrorRate > 0 && f.rngLocked().Float64() < f.ErrorRate:
		mode = faultError
	}
	if mode != faultNone {
		f.failures++
	}
	f.mu.Unlock()

	switch mode {
	case faultDown:
		return nil, ErrReplicaDown
	case faultError:
		return nil, ErrInjected
	case faultHang:
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return s.inner.Do(ctx, payload)
}

func (s *faultSession) Close() error { return s.inner.Close() }
