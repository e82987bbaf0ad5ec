package trace

import (
	"testing"
	"time"
)

func mkTrace(id uint64, status string, d time.Duration) Trace {
	start := time.Unix(1000, 0)
	return Trace{ID: ID(id), Service: "db", Class: 1, Status: status, Start: start, End: start.Add(d)}
}

func TestSamplerKeepPolicy(t *testing.T) {
	var nilSampler *Sampler
	if !nilSampler.Keep(mkTrace(1, "ok", time.Millisecond)) {
		t.Error("nil sampler must keep everything")
	}

	s := &Sampler{SlowThreshold: 100 * time.Millisecond, Fraction: 0, Seed: 1}
	for _, status := range []string{"error", "dropped"} {
		if !s.Keep(mkTrace(2, status, time.Millisecond)) {
			t.Errorf("status %q must always be kept", status)
		}
	}
	if !s.Keep(mkTrace(3, "ok", 150*time.Millisecond)) {
		t.Error("slow trace must always be kept")
	}
	if s.Keep(mkTrace(4, "ok", time.Millisecond)) {
		t.Error("healthy trace kept at fraction 0")
	}
	if !(&Sampler{Fraction: 1}).Keep(mkTrace(5, "ok", time.Millisecond)) {
		t.Error("healthy trace dropped at fraction 1")
	}
}

func TestSamplerDeterministicAcrossInstances(t *testing.T) {
	a := &Sampler{Fraction: 0.3, Seed: 42}
	b := &Sampler{Fraction: 0.3, Seed: 42}
	other := &Sampler{Fraction: 0.3, Seed: 43}
	var differs bool
	for id := uint64(1); id <= 2000; id++ {
		tr := mkTrace(id, "ok", time.Millisecond)
		if a.Keep(tr) != b.Keep(tr) {
			t.Fatalf("same seed disagrees on trace %d", id)
		}
		if a.Keep(tr) != other.Keep(tr) {
			differs = true
		}
	}
	if !differs {
		t.Error("changing the seed never changed a decision")
	}
}

// TestRecorderTailSamplingBurst pushes a burst of mostly-healthy traces with
// scattered errors and slow outliers through a sampling recorder and checks
// the retention policy end to end: every interesting trace retained, healthy
// traces near the configured fraction, counters reconciling with the ring,
// and the whole decision set reproducible under the same seed.
func TestRecorderTailSamplingBurst(t *testing.T) {
	const (
		total    = 3000
		errEvery = 100
		slowN    = 20
		fraction = 0.25
	)
	run := func(seed uint64) (kept map[ID]bool, sampled, discarded uint64, rec *Recorder) {
		rec = NewRecorder(
			WithSampler(&Sampler{SlowThreshold: 100 * time.Millisecond, Fraction: fraction, Seed: seed}),
		)
		for i := 1; i <= total; i++ {
			status, d := "ok", 5*time.Millisecond
			switch {
			case i%errEvery == 0:
				status = "error"
			case i <= slowN:
				d = 250 * time.Millisecond
			}
			rec.record(mkTrace(uint64(i), status, d))
		}
		kept = make(map[ID]bool)
		for _, tr := range rec.Snapshot(Filter{}) {
			kept[tr.ID] = true
		}
		sampled, discarded = rec.SampleCounts()
		return kept, sampled, discarded, rec
	}

	kept, sampled, discarded, rec := run(7)

	// Every error and every slow trace survives.
	var interesting int
	for i := 1; i <= total; i++ {
		isErr, isSlow := i%errEvery == 0, i <= slowN && i%errEvery != 0
		if isErr || isSlow {
			interesting++
			if !kept[ID(i)] {
				t.Errorf("interesting trace %d (err=%v slow=%v) was discarded", i, isErr, isSlow)
			}
		}
	}

	// Healthy traces retained near the configured fraction.
	healthyTotal := total - interesting
	healthyKept := len(kept) - interesting
	got := float64(healthyKept) / float64(healthyTotal)
	if got < fraction-0.05 || got > fraction+0.05 {
		t.Errorf("healthy keep rate = %.3f, want %.2f ± 0.05", got, fraction)
	}

	// Counters reconcile: one decision per trace, ring holds the kept set,
	// nothing was evicted (capacity exceeds the burst).
	if sampled+discarded != total {
		t.Errorf("sampled %d + discarded %d != %d traces", sampled, discarded, total)
	}
	if int(sampled) != len(kept) {
		t.Errorf("sampled counter %d != ring population %d", sampled, len(kept))
	}
	if rec.Evicted() != 0 {
		t.Errorf("evicted = %d, want 0", rec.Evicted())
	}

	// Same seed → identical decision set; different seed → a different one.
	kept2, _, _, _ := run(7)
	if len(kept2) != len(kept) {
		t.Fatalf("rerun kept %d traces, first run %d", len(kept2), len(kept))
	}
	for id := range kept {
		if !kept2[id] {
			t.Fatalf("rerun dropped trace %d that the first run kept", id)
		}
	}
	kept3, _, _, _ := run(8)
	same := true
	for id := range kept {
		if !kept3[id] {
			same = false
			break
		}
	}
	if same && len(kept3) == len(kept) {
		t.Error("different seed produced the identical kept set")
	}
}
