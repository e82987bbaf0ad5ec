package experiments

import (
	"context"
	"fmt"
	"time"

	"servicebroker/internal/sketch"
	"servicebroker/internal/workload"
)

// HotkeyConfig drives the hot-key detection experiment: a ground-truth
// Zipf(s) workload streams into a sketch.Tracker, the key popularity is
// flipped mid-run (rank r becomes rank (r+FlipOffset) mod Keys), and the
// tracker's reported top-k is scored against the known hot set in both
// phases.
type HotkeyConfig struct {
	// Keys is the key-universe size.
	Keys int
	// Skew is the Zipf exponent of the ground-truth popularity.
	Skew float64
	// TopK is the tracker's capacity (sketch.Config.TopK).
	TopK int
	// TruthK is how many ground-truth hot keys recall is scored over.
	TruthK int
	// RequestsPerPhase is the stream length before and after the flip.
	RequestsPerPhase int
	// FlipOffset rotates the rank→key mapping at the phase boundary.
	FlipOffset int
	// CheckEvery is the detection-probe cadence (in requests) after the flip.
	CheckEvery int
	// Seed makes the ground-truth stream reproducible.
	Seed int64
}

// DefaultHotkeyConfig returns the published configuration; quick shrinks the
// stream for a fast pass.
func DefaultHotkeyConfig(quick bool) HotkeyConfig {
	cfg := HotkeyConfig{
		Keys:             10_000,
		Skew:             1.2,
		TopK:             64,
		TruthK:           10,
		RequestsPerPhase: 150_000,
		CheckEvery:       1_000,
		Seed:             20030519,
	}
	if quick {
		cfg.Keys = 2_000
		cfg.RequestsPerPhase = 30_000
	}
	cfg.FlipOffset = cfg.Keys / 2
	return cfg
}

// HotkeyPhase scores one phase of the stream.
type HotkeyPhase struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	// Recall is the fraction of the ground-truth top-TruthK keys present in
	// the tracker's reported top-k at the end of the phase.
	Recall float64 `json:"recall"`
	// RankRecall scores only the tracker's first TruthK entries (exact-rank
	// matching is stricter than set membership in the wider top-k).
	RankRecall float64 `json:"rank_recall"`
	// SkewEstimate is the streaming Zipf-exponent estimate at phase end.
	SkewEstimate float64 `json:"skew_estimate"`
}

// HotkeyResult is the experiment outcome (the "hotkey" entry of
// BENCH_experiments.json).
type HotkeyResult struct {
	Keys             int     `json:"keys"`
	Skew             float64 `json:"skew"`
	TopK             int     `json:"top_k"`
	TruthK           int     `json:"truth_k"`
	RequestsPerPhase int     `json:"requests_per_phase"`
	FlipOffset       int     `json:"flip_offset"`

	PhaseA HotkeyPhase `json:"phase_a"`
	PhaseB HotkeyPhase `json:"phase_b"`

	// DetectionRequests counts requests after the flip until recall over the
	// NEW hot set first reaches 0.9 (-1 if never).
	DetectionRequests int `json:"detection_requests"`
	// DetectionLatency is the wall time from the flip to that detection.
	DetectionLatency time.Duration `json:"detection_latency_ns"`

	// MemoryBytes is the tracker's fixed footprint (sketch + top-k + index).
	MemoryBytes int `json:"memory_bytes"`
	// RecordNsPerOp is the measured cost of one RecordAccess on this stream.
	RecordNsPerOp float64 `json:"record_ns_per_op"`
}

// detectionThreshold is the recall level that counts as "detected".
const detectionThreshold = 0.9

// RunHotkeyDetection replays the ground-truth workload through a tracker and
// scores detection quality, latency, and cost.
func RunHotkeyDetection(ctx context.Context, cfg HotkeyConfig) (*HotkeyResult, error) {
	if cfg.TruthK > cfg.TopK {
		return nil, fmt.Errorf("hotkey: truth set (%d) larger than tracked top-k (%d)", cfg.TruthK, cfg.TopK)
	}
	zipf, err := workload.NewZipfKeys(cfg.Keys, cfg.Skew, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Pre-render every key name so the record loop measures the tracker, not
	// fmt, and stays allocation-free like the production path.
	names := make([]string, cfg.Keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%05d", i)
	}
	keyFor := func(rank, offset int) string { return names[(rank+offset)%cfg.Keys] }

	// truth returns the ground-truth hot set for one phase: by construction
	// the Zipf ranks 0..TruthK-1 through that phase's rank rotation.
	truth := func(offset int) map[string]bool {
		set := make(map[string]bool, cfg.TruthK)
		for r := 0; r < cfg.TruthK; r++ {
			set[keyFor(r, offset)] = true
		}
		return set
	}

	recallOf := func(snap sketch.Snapshot, hot map[string]bool, limit int) float64 {
		keys := snap.Keys
		if limit > 0 && len(keys) > limit {
			keys = keys[:limit]
		}
		found := 0
		for _, k := range keys {
			if hot[k.Key] {
				found++
			}
		}
		return float64(found) / float64(len(hot))
	}

	tr := sketch.NewTracker(sketch.Config{TopK: cfg.TopK})

	res := &HotkeyResult{
		Keys:             cfg.Keys,
		Skew:             cfg.Skew,
		TopK:             cfg.TopK,
		TruthK:           cfg.TruthK,
		RequestsPerPhase: cfg.RequestsPerPhase,
		FlipOffset:       cfg.FlipOffset,
	}

	// Phase A: stable popularity.
	startA := time.Now()
	for seq := 0; seq < cfg.RequestsPerPhase; seq++ {
		if seq%4096 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		tr.RecordAccess(keyFor(zipf.Rank(0, seq), 0), false)
	}
	elapsedA := time.Since(startA)
	snapA := tr.Snapshot()
	hotA := truth(0)
	res.PhaseA = HotkeyPhase{
		Name:         "stable",
		Requests:     cfg.RequestsPerPhase,
		Recall:       recallOf(snapA, hotA, 0),
		RankRecall:   recallOf(snapA, hotA, cfg.TruthK),
		SkewEstimate: snapA.Skew,
	}

	// Phase B: the popularity flips — a disjoint key set becomes hot. The
	// probe watches how many requests the tracker needs before the new hot
	// set dominates its report.
	hotB := truth(cfg.FlipOffset)
	res.DetectionRequests = -1
	flipAt := time.Now()
	var probeTime time.Duration
	for seq := 0; seq < cfg.RequestsPerPhase; seq++ {
		if seq%4096 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		tr.RecordAccess(keyFor(zipf.Rank(1, seq), cfg.FlipOffset), false)
		if res.DetectionRequests < 0 && (seq+1)%cfg.CheckEvery == 0 {
			probeStart := time.Now()
			if recallOf(tr.Snapshot(), hotB, 0) >= detectionThreshold {
				res.DetectionRequests = seq + 1
				res.DetectionLatency = time.Since(flipAt)
			}
			probeTime += time.Since(probeStart)
		}
	}
	snapB := tr.Snapshot()
	res.PhaseB = HotkeyPhase{
		Name:         "flipped",
		Requests:     cfg.RequestsPerPhase,
		Recall:       recallOf(snapB, hotB, 0),
		RankRecall:   recallOf(snapB, hotB, cfg.TruthK),
		SkewEstimate: snapB.Skew,
	}

	elapsedB := time.Since(flipAt) - probeTime

	res.MemoryBytes = tr.MemoryBytes()
	total := 2 * cfg.RequestsPerPhase
	res.RecordNsPerOp = float64((elapsedA + elapsedB).Nanoseconds()) / float64(total)
	return res, nil
}
