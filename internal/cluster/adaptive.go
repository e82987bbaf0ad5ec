package cluster

import (
	"fmt"
	"sync"
	"time"
)

// AdaptiveConfig parameterizes the self-tuning degree-of-clustering
// controller enabled by WithAdaptiveDegree. The paper's Figure 7 shows
// response time vs degree of clustering is U-shaped with a minimum that
// depends on backend capacity; the controller hill-climbs toward that
// minimum online instead of requiring the operator to pick the degree by
// hand.
type AdaptiveConfig struct {
	// MaxDegree is the upper clamp of the walk (required, ≥ 1); the lower
	// clamp is always 1.
	MaxDegree int
	// Step is how far the degree moves per epoch decision (default 1).
	Step int
	// EpochBatches is how many successful backend accesses are averaged
	// before the controller makes one move (default 16). Larger epochs
	// smooth noise at the cost of slower tracking.
	EpochBatches int
	// Hysteresis is the relative dead band around the previous epoch's mean
	// per-request latency (default 0.05). A new mean within ±Hysteresis of
	// the old one is treated as "no signal" and the degree holds, which
	// damps oscillation on measurement noise.
	Hysteresis float64
}

// withDefaults fills zero fields and validates the result.
func (c AdaptiveConfig) withDefaults() (AdaptiveConfig, error) {
	if c.Step == 0 {
		c.Step = 1
	}
	if c.EpochBatches == 0 {
		c.EpochBatches = 16
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 0.05
	}
	switch {
	case c.MaxDegree < 1:
		return c, fmt.Errorf("cluster: adaptive MaxDegree must be ≥ 1, got %d", c.MaxDegree)
	case c.Step < 1:
		return c, fmt.Errorf("cluster: adaptive Step must be ≥ 1, got %d", c.Step)
	case c.EpochBatches < 1:
		return c, fmt.Errorf("cluster: adaptive EpochBatches must be ≥ 1, got %d", c.EpochBatches)
	case c.Hysteresis < 0 || c.Hysteresis >= 1:
		return c, fmt.Errorf("cluster: adaptive Hysteresis must be in [0, 1), got %g", c.Hysteresis)
	}
	return c, nil
}

// adaptiveController is the hill climber. It accumulates per-request
// completion latency (summed request sojourn ÷ batch size, covering gather
// wait, backend queueing, and service — the response time Figure 7 plots)
// over an epoch of EpochBatches samples, then compares the epoch mean
// against the previous epoch's:
//
//   - clearly worse (beyond the hysteresis band): the last move climbed the
//     far side of the U, so reverse direction and step back;
//   - clearly better: the walk is descending the curve, keep stepping the
//     same way;
//   - within the band: hold position — on a flat stretch or at the minimum
//     moving would just inject noise.
//
// A hold must not become capture: if the backend's capacity changes while
// the walk is parked (or noise strands it on a bad degree — the worst case
// is pinned at a range clamp, where "worse → reverse" is a no-op and every
// later epoch compares the position against itself), the controller would
// otherwise never notice. After probeAfterHolds consecutive in-band epochs
// it therefore takes a remembered probing step: if the probed degree is
// clearly better the walk resumes from it, otherwise the controller returns
// to the held degree and aims the next probe at the other side. At the
// minimum the probes alternate cheaply across the flat bottom; off the
// minimum they re-engage the climb.
//
// The degree clamps to [1, MaxDegree]; hitting a clamp reverses
// the direction so the next useful move points back into range. Because
// the U-curve is unimodal, a reversed overshoot always lands the walk on
// the descending side again, so the controller converges to a ±Step orbit
// around the minimum.
type adaptiveController struct {
	cfg AdaptiveConfig

	mu  sync.Mutex
	cur int // current degree
	dir int // +1 or -1, direction of the next move

	epochSum   time.Duration // Σ per-request latency this epoch
	epochCount int           // samples this epoch
	prevMean   time.Duration // previous epoch's mean (0 = no epoch yet)
	// discard counts batches to drop after a move: batches already gathered
	// or in flight when the degree changed were shaped by the old degree,
	// and judging the new position on them makes the walk chase its own
	// transients.
	discard int

	held     int           // consecutive in-band epochs at the current degree
	probing  bool          // a remembered probe is outstanding
	probeCur int           // degree to return to if the probe is rejected
	probeRef time.Duration // that degree's mean, the probe's baseline
}

// probeAfterHolds is how many consecutive in-band epochs the controller
// tolerates before taking a probing step to re-test its position.
const probeAfterHolds = 3

// init validates cfg, applies defaults, and clamps the starting degree.
func (a *adaptiveController) init(degree int) error {
	cfg, err := a.cfg.withDefaults()
	if err != nil {
		return err
	}
	a.cfg = cfg
	a.cur = degree
	if a.cur < 1 {
		a.cur = 1
	}
	if a.cur > cfg.MaxDegree {
		a.cur = cfg.MaxDegree
	}
	a.dir = 1
	if a.cur == cfg.MaxDegree {
		a.dir = -1
	}
	return nil
}

// observe feeds one successful batch into the current epoch and, at epoch
// boundaries, makes a hill-climbing move. It returns the (possibly new)
// degree and whether it changed.
func (a *adaptiveController) observe(sojournSum time.Duration, size int) (degree int, changed bool) {
	if size < 1 {
		size = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	if a.discard > 0 {
		a.discard--
		return a.cur, false
	}
	a.epochSum += sojournSum / time.Duration(size)
	a.epochCount++
	if a.epochCount < a.cfg.EpochBatches {
		return a.cur, false
	}
	mean := a.epochSum / time.Duration(a.epochCount)
	a.epochSum, a.epochCount = 0, 0

	prev := a.prevMean
	a.prevMean = mean
	if prev == 0 {
		// First completed epoch: no baseline to compare against yet. Take
		// the initial step so the next epoch produces a comparison.
		return a.move(), true
	}

	band := time.Duration(float64(prev) * a.cfg.Hysteresis)
	if a.probing {
		a.probing = false
		if mean < a.probeRef-time.Duration(float64(a.probeRef)*a.cfg.Hysteresis) {
			// The probe found a clearly better degree: resume the walk
			// from here in the direction that was probed.
			return a.move(), true
		}
		// No improvement: return to the held degree and aim the next probe
		// at its other side.
		a.cur = a.probeCur
		a.prevMean = a.probeRef
		a.dir = -a.dir
		a.discard = a.cfg.EpochBatches
		return a.cur, true
	}

	switch {
	case mean > prev+band:
		// Worse beyond the noise band: the last move climbed the far side
		// of the U. Turn around.
		a.held = 0
		a.dir = -a.dir
		return a.move(), true
	case mean < prev-band:
		// Clearly better: keep descending.
		a.held = 0
		return a.move(), true
	default:
		// Indistinguishable from the last epoch: hold — but not forever.
		a.held++
		if a.held < probeAfterHolds {
			return a.cur, false
		}
		a.held = 0
		a.probing = true
		a.probeCur = a.cur
		a.probeRef = mean
		return a.move(), true
	}
}

// move steps the degree in the current direction, clamping to the
// configured range and reversing direction at the bounds, then schedules a
// settling epoch: the next EpochBatches samples are discarded so the first
// judged epoch is produced entirely at the new degree. Callers hold mu.
func (a *adaptiveController) move() int {
	a.cur += a.dir * a.cfg.Step
	if a.cur <= 1 {
		a.cur = 1
		a.dir = 1
	} else if a.cur >= a.cfg.MaxDegree {
		a.cur = a.cfg.MaxDegree
		a.dir = -1
	}
	a.discard = a.cfg.EpochBatches
	return a.cur
}
