package sketch

import (
	"fmt"
	"testing"
	"time"
)

// The tracker sits on the broker's cache-hit fast path: the record path must
// not allocate. CI's bench-smoke job runs these as an alloc-regression gate.

func TestRecordAccessAllocFree(t *testing.T) {
	tr := NewTracker(Config{TopK: 16})
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		tr.RecordAccess(keys[i], false) // warm: map growth happens here
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		tr.RecordAccess(keys[i&63], i&1 == 0)
		i++
	}); avg != 0 {
		t.Fatalf("RecordAccess allocates %v per op, want 0", avg)
	}
}

func TestRecordLatencyAllocFree(t *testing.T) {
	tr := NewTracker(Config{TopK: 16})
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		for j := 0; j < 10; j++ {
			tr.RecordAccess(keys[i], false)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		tr.RecordLatency(keys[i&15], time.Millisecond)
		i++
	}); avg != 0 {
		t.Fatalf("RecordLatency allocates %v per op, want 0", avg)
	}
}

func BenchmarkRecordAccess(b *testing.B) {
	tr := NewTracker(Config{})
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RecordAccess(keys[i&255], i&1 == 0)
	}
}

func BenchmarkRecordLatency(b *testing.B) {
	tr := NewTracker(Config{})
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		tr.RecordAccess(keys[i], false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RecordLatency(keys[i&63], time.Millisecond)
	}
}
