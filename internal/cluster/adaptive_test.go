package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/sqldb"
)

// uCurve models the paper's Figure-7 latency curve: per-request latency is
// minimized at degree `best` and grows linearly as the degree moves away on
// either side. Returned as a *batch* latency so observe() divides it back.
func uCurve(best, degree, size int) time.Duration {
	dist := degree - best
	if dist < 0 {
		dist = -dist
	}
	perReq := time.Duration(100+20*dist) * time.Microsecond
	return perReq * time.Duration(size)
}

// feedEpoch pushes one full epoch of identical samples and returns the
// controller's resulting degree.
func feedEpoch(t *testing.T, a *adaptiveController, degree int, best int) int {
	t.Helper()
	cur := degree
	for i := 0; i < a.cfg.EpochBatches; i++ {
		cur, _ = a.observe(uCurve(best, degree, degree), degree)
	}
	return cur
}

func TestAdaptiveConfigDefaults(t *testing.T) {
	cfg, err := AdaptiveConfig{MaxDegree: 8}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	if cfg.MinDegree != 1 || cfg.Step != 1 || cfg.EpochBatches != 16 || cfg.Hysteresis != 0.05 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	bad := []AdaptiveConfig{
		{},                               // MaxDegree missing
		{MaxDegree: 4, MinDegree: 8},     // Max < Min
		{MaxDegree: 8, MinDegree: -1},    // negative min
		{MaxDegree: 8, Step: -2},         // negative step
		{MaxDegree: 8, EpochBatches: -1}, // negative epoch
		{MaxDegree: 8, Hysteresis: 1.5},  // band ≥ 1
		{MaxDegree: 8, Hysteresis: -0.1}, // negative band
	}
	for i, cfg := range bad {
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("case %d: config %+v unexpectedly valid", i, cfg)
		}
	}
	if _, err := NewBatcher(
		func(ctx context.Context, p []byte) ([]byte, error) { return p, nil },
		RepeatCombiner{}, 4, WithAdaptiveDegree(AdaptiveConfig{}),
	); err == nil {
		t.Fatal("NewBatcher accepted an invalid adaptive config")
	}
}

// TestAdaptiveClimbsTowardMinimum verifies the controller walks from a bad
// starting degree to a ±Step orbit of the U-curve minimum and stays there.
func TestAdaptiveClimbsTowardMinimum(t *testing.T) {
	const best = 8
	a := &adaptiveController{cfg: AdaptiveConfig{MaxDegree: 16, EpochBatches: 4}}
	if err := a.init(1); err != nil {
		t.Fatalf("init: %v", err)
	}
	cur := 1
	for epoch := 0; epoch < 40; epoch++ {
		cur = feedEpoch(t, a, cur, best)
	}
	if cur < best-1 || cur > best+1 {
		t.Fatalf("controller settled at degree %d, want within ±1 of %d", cur, best)
	}
}

// TestAdaptiveDescendsFromAbove starts past the minimum: the first epochs
// look "worse", so the walk must reverse and come back down.
func TestAdaptiveDescendsFromAbove(t *testing.T) {
	const best = 3
	a := &adaptiveController{cfg: AdaptiveConfig{MaxDegree: 16, EpochBatches: 4}}
	if err := a.init(14); err != nil {
		t.Fatalf("init: %v", err)
	}
	cur := 14
	for epoch := 0; epoch < 40; epoch++ {
		cur = feedEpoch(t, a, cur, best)
	}
	if cur < best-1 || cur > best+1 {
		t.Fatalf("controller settled at degree %d, want within ±1 of %d", cur, best)
	}
}

// TestAdaptiveTracksCapacityStep moves the optimum mid-run, as the fig7a
// experiment does by stepping backend capacity, and requires the walk to
// re-converge on the new minimum.
func TestAdaptiveTracksCapacityStep(t *testing.T) {
	a := &adaptiveController{cfg: AdaptiveConfig{MaxDegree: 16, EpochBatches: 4}}
	if err := a.init(1); err != nil {
		t.Fatalf("init: %v", err)
	}
	cur := 1
	for epoch := 0; epoch < 40; epoch++ {
		cur = feedEpoch(t, a, cur, 10)
	}
	if cur < 9 || cur > 11 {
		t.Fatalf("phase 1: settled at %d, want within ±1 of 10", cur)
	}
	for epoch := 0; epoch < 60; epoch++ {
		cur = feedEpoch(t, a, cur, 2)
	}
	if cur < 1 || cur > 3 {
		t.Fatalf("phase 2: settled at %d, want within ±1 of 2", cur)
	}
}

// TestAdaptiveHoldsInsideHysteresis: samples that differ by less than the
// band must not move the degree — until probeAfterHolds in-band epochs have
// passed, at which point the controller takes one remembered probing step
// and, finding no improvement, returns to the held degree.
func TestAdaptiveHoldsInsideHysteresis(t *testing.T) {
	a := &adaptiveController{cfg: AdaptiveConfig{MaxDegree: 16, EpochBatches: 2, Hysteresis: 0.2}}
	if err := a.init(8); err != nil {
		t.Fatalf("init: %v", err)
	}
	// epoch feeds one epoch of identical in-band samples. Each move is
	// followed by a settling epoch whose samples are discarded, so the
	// helper is called once extra after any step.
	epoch := func(us time.Duration) (int, bool) {
		var cur int
		var changed bool
		for i := 0; i < 2; i++ {
			cur, changed = a.observe(us*time.Microsecond, 1)
		}
		return cur, changed
	}
	epoch(100) // first epoch: initial probing step
	epoch(100) // its settling epoch
	settled, changed := epoch(100)
	if changed {
		t.Fatalf("degree moved to %d on the first in-band epoch", settled)
	}
	// Second in-band epoch: still holding.
	if cur, changed := epoch(104); changed {
		t.Fatalf("degree moved to %d inside the hysteresis band", cur)
	}
	// Third in-band epoch: the anti-capture probe fires.
	probed, changed := epoch(97)
	if !changed || probed == settled {
		t.Fatalf("expected a probing step after %d in-band epochs, got degree %d (changed %v)",
			probeAfterHolds, probed, changed)
	}
	epoch(100) // the probe's settling epoch
	// The probed degree is no better, so the walk must return to the held
	// degree rather than wander off along a flat stretch.
	if cur, _ := epoch(100); cur != settled {
		t.Fatalf("probe did not return: settled at %d, now %d", settled, cur)
	}
}

// TestAdaptiveClampsToRange: the walk never leaves [MinDegree, MaxDegree]
// even under adversarial samples that always reward the previous move.
func TestAdaptiveClampsToRange(t *testing.T) {
	a := &adaptiveController{cfg: AdaptiveConfig{MinDegree: 2, MaxDegree: 6, EpochBatches: 1, Step: 3}}
	if err := a.init(4); err != nil {
		t.Fatalf("init: %v", err)
	}
	lat := 1000 * time.Microsecond
	for i := 0; i < 50; i++ {
		lat = lat * 9 / 10 // monotonically "better": keep pushing the same way
		deg, _ := a.observe(lat, 1)
		if deg < 2 || deg > 6 {
			t.Fatalf("degree %d escaped [2, 6] at step %d", deg, i)
		}
	}
}

// TestBatcherAdaptiveDegreeLive drives a real Batcher whose backend latency
// follows a U-curve in the batch size and checks the live degree moves off
// its starting point and is reflected in the gauge. The degree is read while
// the clients run: as they finish one by one the concurrency falls, the walk
// follows it back down, and 13 runs in 100 it stands on 1 again at the end
// (after batches of 4 to 6).
func TestBatcherAdaptiveDegreeLive(t *testing.T) {
	var mu sync.Mutex
	sizes := []int{}
	do := func(ctx context.Context, payload []byte) ([]byte, error) {
		_, n := sqldb.ParseRepeat(string(payload))
		mu.Lock()
		sizes = append(sizes, n)
		mu.Unlock()
		time.Sleep(uCurve(4, n, n) / 4) // compressed for test speed
		return payload, nil
	}
	b, err := NewBatcher(do, RepeatCombiner{}, 1,
		WithMaxWait(200*time.Microsecond),
		WithAdaptiveDegree(AdaptiveConfig{MaxDegree: 8, EpochBatches: 2}),
	)
	if err != nil {
		t.Fatalf("NewBatcher: %v", err)
	}
	defer b.Close()

	if got := b.Degree(); got != 1 {
		t.Fatalf("initial degree = %d, want 1", got)
	}
	peak := 1 // highest Degree() a client saw, under mu
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := b.Submit(context.Background(), []byte("q")); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				mu.Lock()
				peak = max(peak, b.Degree())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if peak == 1 {
		t.Fatalf("degree never moved off 1 after %d batches", len(sizes))
	}
	if g := b.Metrics().Gauge("cluster_degree_current").Value(); g != int64(b.Degree()) {
		t.Fatalf("gauge %d does not match Degree() %d", g, b.Degree())
	}
}
