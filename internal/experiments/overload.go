package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/overload"
	"servicebroker/internal/qos"
)

// OverloadConfig parameterizes the step-overload ablation: a bounded CGI
// backend is hit with a sudden low-priority flood while sequential
// high-priority probes measure the latency a premium client experiences.
// The same scenario runs twice — once with the paper's static threshold and
// once with the adaptive overload subsystem (AIMD admission limit plus
// sojourn-time queue dropping) — so the benefit of self-tuning admission is
// a single ratio comparison.
type OverloadConfig struct {
	// ProcessTime is the backend's bounded per-request processing time.
	ProcessTime time.Duration
	// BackendSlots caps simultaneous backend processing (Apache MaxClients).
	BackendSlots int
	// Workers is the broker's persistent backend session count.
	Workers int
	// Threshold is the static outstanding-request threshold; the adaptive
	// mode uses it as the limiter's ceiling.
	Threshold int
	// FloodClients is the size of the class-3 closed-loop flood.
	FloodClients int
	// Probes is how many sequential class-1 requests sample latency in each
	// phase (calm and overloaded).
	Probes int
	// ProbeGap is the think time between probes.
	ProbeGap time.Duration
	// Settle is how long the flood runs before overloaded probing starts,
	// giving the adaptive limiter time to walk the limit down from the
	// static ceiling.
	Settle time.Duration
	// LatencyTarget is the adaptive limiter's congestion latency.
	LatencyTarget time.Duration
	// LimitMin is the adaptive limiter's floor.
	LimitMin int
	// CutWindow rate-limits the limiter's multiplicative cuts.
	CutWindow time.Duration
	// SojournBudget is the adaptive mode's class-1 queue-wait budget.
	SojournBudget time.Duration
}

// DefaultOverloadConfig returns the ablation defaults; quick shrinks probe
// counts and settle time for a fast pass.
func DefaultOverloadConfig(quick bool) OverloadConfig {
	cfg := OverloadConfig{
		ProcessTime:   4 * time.Millisecond,
		BackendSlots:  8,
		Workers:       64,
		Threshold:     64,
		FloodClients:  64,
		Probes:        150,
		ProbeGap:      2 * time.Millisecond,
		Settle:        700 * time.Millisecond,
		LatencyTarget: 6 * time.Millisecond,
		LimitMin:      2,
		CutWindow:     30 * time.Millisecond,
		SojournBudget: 10 * time.Millisecond,
	}
	if quick {
		cfg.Probes = 60
		cfg.Settle = 400 * time.Millisecond
	}
	return cfg
}

// OverloadMode is one measured admission policy.
type OverloadMode struct {
	Name string `json:"name"`
	// Probe latency (class 1), microseconds.
	UnloadedP50Micros float64 `json:"unloaded_p50_us"`
	UnloadedP95Micros float64 `json:"unloaded_p95_us"`
	LoadedP50Micros   float64 `json:"loaded_p50_us"`
	LoadedP95Micros   float64 `json:"loaded_p95_us"`
	// DegradationRatio is loaded p95 / unloaded p95 — the number the
	// acceptance criterion is about. MedianDegradationRatio is the same at
	// p50; being outlier-free it is what the CI test asserts on.
	DegradationRatio       float64 `json:"degradation_ratio"`
	MedianDegradationRatio float64 `json:"median_degradation_ratio"`
	// Flood accounting (class 3).
	FloodIssued int64 `json:"flood_issued"`
	FloodOK     int64 `json:"flood_ok"`
	FloodShed   int64 `json:"flood_shed"`
	// Broker-side overload counters.
	ShedTotal        int64 `json:"shed_total"`
	SojournEvictions int64 `json:"sojourn_evictions"`
	// FinalLimit is the adaptive limit when the flood ended (0 = static).
	FinalLimit int `json:"final_limit"`
	// LimitCuts counts multiplicative decreases the limiter applied.
	LimitCuts int64 `json:"limit_cuts"`
}

// OverloadResult is the full ablation output (the "overload" entry of
// BENCH_experiments.json).
type OverloadResult struct {
	ProcessTimeMs   float64      `json:"process_time_ms"`
	BackendSlots    int          `json:"backend_slots"`
	Threshold       int          `json:"threshold"`
	FloodClients    int          `json:"flood_clients"`
	LatencyTargetMs float64      `json:"latency_target_ms"`
	Static          OverloadMode `json:"static"`
	Adaptive        OverloadMode `json:"adaptive"`
}

// percentile returns the pct-th percentile of the samples (which it sorts
// in place).
func percentile(samples []time.Duration, pct int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := len(samples) * pct / 100
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// RunOverloadAblation measures high-priority probe latency through a broker
// before and during a class-3 step overload, under static-threshold and
// adaptive admission. The paper's static rule admits low-priority work up to
// a fixed outstanding bound far above the backend's true capacity, so every
// admitted request queues behind the flood; the adaptive mode walks the
// limit down to measured capacity and sheds the excess immediately with a
// retry-after hint, keeping the premium class's latency near its unloaded
// level.
func RunOverloadAblation(ctx context.Context, cfg OverloadConfig) (*OverloadResult, error) {
	if cfg.ProcessTime <= 0 || cfg.BackendSlots < 1 || cfg.Workers < 1 ||
		cfg.Threshold < 1 || cfg.FloodClients < 1 || cfg.Probes < 1 {
		return nil, fmt.Errorf("experiments: bad overload parameters %+v", cfg)
	}

	runMode := func(name string, adaptive bool) (*OverloadMode, error) {
		conn := &backend.DelayConnector{
			ServiceName:   "cgi",
			ProcessTime:   cfg.ProcessTime,
			MaxConcurrent: cfg.BackendSlots,
		}
		opts := []broker.Option{
			broker.WithThreshold(cfg.Threshold, 3),
			broker.WithWorkers(cfg.Workers),
		}
		if adaptive {
			opts = append(opts,
				broker.WithAdaptiveLimit(overload.Config{
					Min:           cfg.LimitMin,
					Max:           cfg.Threshold,
					LatencyTarget: cfg.LatencyTarget,
					CutWindow:     cfg.CutWindow,
				}),
				broker.WithSojournBudget(cfg.SojournBudget),
			)
		}
		b, err := broker.New(conn, opts...)
		if err != nil {
			return nil, err
		}
		defer b.Close()

		probe := func(i int) (time.Duration, error) {
			start := time.Now()
			resp := b.Handle(ctx, &broker.Request{
				Payload: []byte(fmt.Sprintf("probe-%d", i)),
				Class:   qos.Class1,
				NoCache: true,
			})
			if resp.Status == broker.StatusError {
				return 0, fmt.Errorf("%s probe: %v", name, resp.Err)
			}
			return time.Since(start), nil
		}

		// Phase 1 — calm: sequential probes establish the unloaded baseline.
		unloaded := make([]time.Duration, 0, cfg.Probes)
		for i := 0; i < cfg.Probes; i++ {
			d, err := probe(i)
			if err != nil {
				return nil, err
			}
			unloaded = append(unloaded, d)
			time.Sleep(cfg.ProbeGap)
		}

		// Phase 2 — step overload: a closed-loop class-3 flood slams the
		// broker. Flood clients honor the retry-after hint (capped, so the
		// pressure stays on) the way a well-behaved front end would.
		var issued, floodOK, floodShed atomic.Int64
		floodCtx, stopFlood := context.WithCancel(ctx)
		defer stopFlood()
		var floodWG sync.WaitGroup
		for c := 0; c < cfg.FloodClients; c++ {
			floodWG.Add(1)
			go func(c int) {
				defer floodWG.Done()
				for seq := 0; floodCtx.Err() == nil; seq++ {
					issued.Add(1)
					resp := b.Handle(floodCtx, &broker.Request{
						Payload: []byte(fmt.Sprintf("flood-%d-%d", c, seq)),
						Class:   qos.Class3,
						NoCache: true,
					})
					switch resp.Status {
					case broker.StatusOK:
						floodOK.Add(1)
					case broker.StatusShed, broker.StatusDropped:
						floodShed.Add(1)
						backoff := resp.RetryAfter
						if backoff > 20*time.Millisecond {
							backoff = 20 * time.Millisecond
						}
						if backoff > 0 {
							select {
							case <-floodCtx.Done():
							case <-time.After(backoff):
							}
						}
					}
				}
			}(c)
		}

		// Let the limiter converge (the static mode just soaks), then probe
		// the premium class through the overload.
		select {
		case <-time.After(cfg.Settle):
		case <-ctx.Done():
			stopFlood()
			floodWG.Wait()
			return nil, ctx.Err()
		}
		loaded := make([]time.Duration, 0, cfg.Probes)
		for i := 0; i < cfg.Probes; i++ {
			d, err := probe(cfg.Probes + i)
			if err != nil {
				stopFlood()
				floodWG.Wait()
				return nil, err
			}
			loaded = append(loaded, d)
			time.Sleep(cfg.ProbeGap)
		}
		stopFlood()
		floodWG.Wait()

		mode := &OverloadMode{
			Name:              name,
			UnloadedP50Micros: float64(percentile(unloaded, 50)) / float64(time.Microsecond),
			UnloadedP95Micros: float64(percentile(unloaded, 95)) / float64(time.Microsecond),
			LoadedP50Micros:   float64(percentile(loaded, 50)) / float64(time.Microsecond),
			LoadedP95Micros:   float64(percentile(loaded, 95)) / float64(time.Microsecond),
			FloodIssued:       issued.Load(),
			FloodOK:           floodOK.Load(),
			FloodShed:         floodShed.Load(),
			ShedTotal:         b.Metrics().Counter("shed_total").Value(),
			SojournEvictions:  b.Metrics().Counter("sojourn_evictions").Value(),
		}
		if mode.UnloadedP95Micros > 0 {
			mode.DegradationRatio = mode.LoadedP95Micros / mode.UnloadedP95Micros
		}
		if mode.UnloadedP50Micros > 0 {
			mode.MedianDegradationRatio = mode.LoadedP50Micros / mode.UnloadedP50Micros
		}
		if sn, ok := b.LimitSnapshot(); ok {
			mode.FinalLimit = sn.Limit
			mode.LimitCuts = sn.Cuts
		}
		return mode, nil
	}

	static, err := runMode("static", false)
	if err != nil {
		return nil, err
	}
	adaptive, err := runMode("adaptive", true)
	if err != nil {
		return nil, err
	}
	return &OverloadResult{
		ProcessTimeMs:   float64(cfg.ProcessTime) / float64(time.Millisecond),
		BackendSlots:    cfg.BackendSlots,
		Threshold:       cfg.Threshold,
		FloodClients:    cfg.FloodClients,
		LatencyTargetMs: float64(cfg.LatencyTarget) / float64(time.Millisecond),
		Static:          *static,
		Adaptive:        *adaptive,
	}, nil
}
