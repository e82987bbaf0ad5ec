package testutil

import (
	"sync/atomic"
	"testing"
	"time"

	"servicebroker/internal/clock"
)

// FakeClock makes package clock read time.Unix(1000, 0) for the rest of the
// test and returns the func that moves that reading forward. The reading may
// move while the code under test reads it.
func FakeClock(t testing.TB) (advance func(time.Duration)) {
	var ns atomic.Int64
	ns.Store(time.Unix(1000, 0).UnixNano())
	t.Cleanup(clock.Set(func() time.Time { return time.Unix(0, ns.Load()) }))
	return func(d time.Duration) { ns.Add(int64(d)) }
}
