// Package clock is the one time source behind the broker's decisions that
// depend on elapsed time: cache TTLs, breaker cooldowns, lease expiry,
// transaction abandonment, idempotency TTLs, the token-bucket contract, the
// AIMD cut window and hot-key rates. It reads the wall clock unless a test
// sets another source with Set. Latency measurement, context deadlines and
// timers stay on package time.
//
// The package imports only the standard library.
package clock

import (
	"sync/atomic"
	"time"
)

// source is the time source Set installed; nil means the wall clock.
var source atomic.Pointer[func() time.Time]

// Now returns the current time.
func Now() time.Time {
	if now := source.Load(); now != nil {
		return (*now)()
	}
	return time.Now()
}

// Since returns the time elapsed since t.
func Since(t time.Time) time.Duration { return Now().Sub(t) }

// Set makes now the time source and returns a func that restores the one
// it replaced. It is the test seam: production code never calls it.
func Set(now func() time.Time) (restore func()) {
	prev := source.Swap(&now)
	return func() { source.Store(prev) }
}
