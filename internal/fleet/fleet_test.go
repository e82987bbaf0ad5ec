package fleet

import (
	"testing"

	"servicebroker/internal/metrics"
)

func TestLogRingBoundsAndOrder(t *testing.T) {
	l := NewLog(4, nil)
	for i := 0; i < 6; i++ {
		l.Publish(Event{Kind: KindLeaseJoin, Member: string(rune('a' + i))})
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", l.Len())
	}
	if l.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", l.Dropped())
	}
	got := l.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("Snapshot returned %d events, want 4", len(got))
	}
	// Newest first, and sequence numbers keep counting past the overwrites.
	if got[0].Member != "f" || got[3].Member != "c" {
		t.Fatalf("Snapshot order wrong: newest %q ... oldest %q", got[0].Member, got[3].Member)
	}
	if got[0].Seq != 6 {
		t.Fatalf("newest Seq = %d, want 6", got[0].Seq)
	}
	if limited := l.Snapshot(2); len(limited) != 2 || limited[0].Member != "f" {
		t.Fatalf("Snapshot(2) = %+v, want newest two", limited)
	}
}

func TestLogNilSafety(t *testing.T) {
	var l *Log
	l.Publish(Event{Kind: KindDrainStart}) // must not panic
	if l.Snapshot(0) != nil || l.Len() != 0 || l.Dropped() != 0 {
		t.Fatal("nil Log must behave as empty")
	}
}

func TestLogMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	l := NewLog(2, reg)
	for i := 0; i < 3; i++ {
		l.Publish(Event{Kind: KindLimitCut})
	}
	if got := reg.Counter("fleet_events_total").Value(); got != 3 {
		t.Fatalf("fleet_events_total = %d, want 3", got)
	}
	if got := reg.Counter("fleet_events_dropped_total").Value(); got != 1 {
		t.Fatalf("fleet_events_dropped_total = %d, want 1", got)
	}
}
