package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/cluster"
	"servicebroker/internal/qos"
	"servicebroker/internal/sqldb"
)

// AdaptiveClusteringConfig parameterizes the fig7a ablation: the paper's
// Figure-7 result is that response time vs degree of clustering is U-shaped
// with a capacity-dependent minimum, so a fixed degree chosen for one
// backend configuration is wrong after the configuration changes. The
// ablation runs the same clustered workload with every static degree in
// Degrees and once with the adaptive controller, stepping the backend's
// concurrent-request capacity from SlotsA to SlotsB mid-run, and compares
// per-phase steady-state means.
//
// The backend is a simulated CGI script with the paper's cost model: each
// access pays a connection handshake plus per-repetition query work
// (Handshake + n·PerItem for a batch of n), gated by an adjustable slot
// semaphore standing in for Apache's MaxClients. With K closed-loop clients
// and c slots the response-time curve has its minimum near degree K/c —
// stepping c moves the optimum, which is exactly what a static degree
// cannot follow.
type AdaptiveClusteringConfig struct {
	// Clients is the closed-loop client count (K above).
	Clients int
	// SlotsA and SlotsB are the backend capacities before and after the
	// mid-run step.
	SlotsA, SlotsB int
	// Handshake is the per-access connection cost clustering amortizes.
	Handshake time.Duration
	// PerItem is the per-repetition query cost that bounds useful degree.
	PerItem time.Duration
	// Degrees are the static degrees to sweep.
	Degrees []int
	// StartDegree seeds the adaptive run (and bounds nothing: the
	// controller walks [1, MaxDegree]).
	StartDegree int
	// MaxDegree is the adaptive controller's ceiling.
	MaxDegree int
	// BatchWait is the batcher's gather window at StartDegree. The adaptive
	// batcher scales it linearly with the live degree (BatchWait/StartDegree
	// per unit), and that per-unit budget must exceed the saturated
	// backend's arrival spacing ((Handshake+PerItem)/slots): when the walk
	// visits degree 1, every client is parked in a serial backend flight and
	// new submissions arrive one service-time apart — a narrower window can
	// then never gather a batch of two, so every probe upward measures
	// singleton batches and the controller stays trapped in the serial
	// equilibrium.
	BatchWait time.Duration
	// PhaseLen is how long each capacity phase runs.
	PhaseLen time.Duration
	// Settle is the head of each phase excluded from its steady-state mean
	// (controller convergence time after the step).
	Settle time.Duration
	// EpochBatches is the controller's samples-per-decision.
	EpochBatches int
	// Hysteresis is the controller's relative dead band. The experiment
	// runs many tiny accesses on a shared machine, so scheduling noise
	// between adjacent degrees is well above the library default.
	Hysteresis float64
}

// DefaultAdaptiveClusteringConfig returns the ablation defaults; quick
// shrinks the phase lengths for a fast pass.
func DefaultAdaptiveClusteringConfig(quick bool) AdaptiveClusteringConfig {
	cfg := AdaptiveClusteringConfig{
		Clients:      32,
		SlotsA:       8,
		SlotsB:       4,
		Handshake:    2 * time.Millisecond,
		PerItem:      200 * time.Microsecond,
		Degrees:      []int{1, 4, 8, 16, 32},
		StartDegree:  8,
		MaxDegree:    32,
		BatchWait:    12 * time.Millisecond,
		PhaseLen:     4 * time.Second,
		Settle:       2 * time.Second,
		EpochBatches: 12,
		Hysteresis:   0.05,
	}
	if quick {
		cfg.Degrees = []int{1, 4, 16}
		cfg.PhaseLen = 1800 * time.Millisecond
		cfg.Settle = 900 * time.Millisecond
	}
	return cfg
}

// capacityGate is an adjustable slot semaphore — the experiment's stand-in
// for the backend web server's MaxClients, steppable mid-run. Slots are
// granted in strict arrival order (the ticket loop below): a plain
// cond-variable semaphore lets a fast-cycling client re-take the slot it
// just released before the signalled waiter is scheduled, which on a small
// machine starves the queue outright — a real server's accept queue is FIFO.
type capacityGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	inUse    int
	next     uint64 // next ticket to hand out
	serving  uint64 // lowest ticket allowed to take a slot
}

func newCapacityGate(capacity int) *capacityGate {
	g := &capacityGate{capacity: capacity}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until a slot frees and every earlier arrival has been
// served. It needs no context: holders release after a bounded simulated
// access, so waiters always make progress.
func (g *capacityGate) acquire() {
	g.mu.Lock()
	ticket := g.next
	g.next++
	for ticket != g.serving || g.inUse >= g.capacity {
		g.cond.Wait()
	}
	g.serving++
	g.inUse++
	g.cond.Broadcast() // let the next ticket holder re-check
	g.mu.Unlock()
}

func (g *capacityGate) release() {
	g.mu.Lock()
	g.inUse--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// setCapacity applies the mid-run step.
func (g *capacityGate) setCapacity(n int) {
	g.mu.Lock()
	g.capacity = n
	g.cond.Broadcast()
	g.mu.Unlock()
}

// AdaptiveClusteringStatic is one static degree's per-phase means.
type AdaptiveClusteringStatic struct {
	Degree       int     `json:"degree"`
	PhaseAMeanMs float64 `json:"phase_a_mean_ms"`
	PhaseBMeanMs float64 `json:"phase_b_mean_ms"`
}

// AdaptiveClusteringPhase summarizes one capacity phase: the best and worst
// static degree against the adaptive controller's steady-state mean.
type AdaptiveClusteringPhase struct {
	Slots          int     `json:"slots"`
	BestDegree     int     `json:"best_static_degree"`
	BestMeanMs     float64 `json:"best_static_mean_ms"`
	WorstDegree    int     `json:"worst_static_degree"`
	WorstMeanMs    float64 `json:"worst_static_mean_ms"`
	AdaptiveMeanMs float64 `json:"adaptive_mean_ms"`
	// AdaptiveDegreeEnd is the controller's position when the phase ended;
	// AdaptiveDegreeMean is its mean position over the phase's steady-state
	// completions — where the walk spent the phase, not where it happened to
	// stand at the last instant.
	AdaptiveDegreeEnd  int     `json:"adaptive_degree_end"`
	AdaptiveDegreeMean float64 `json:"adaptive_degree_mean"`
	// AdaptiveVsBest is adaptive mean / best static mean — the acceptance
	// criterion wants ≤ 1.15 in both phases.
	AdaptiveVsBest float64 `json:"adaptive_vs_best"`
	// WorstVsBest is worst static mean / best static mean — ≥ 2 shows a
	// wrongly chosen fixed degree actually hurts.
	WorstVsBest float64 `json:"worst_vs_best"`
}

// AdaptiveClusteringResult is the fig7a output (the "fig7a" entry of
// BENCH_experiments.json).
type AdaptiveClusteringResult struct {
	Clients     int                        `json:"clients"`
	HandshakeMs float64                    `json:"handshake_ms"`
	PerItemMs   float64                    `json:"per_item_ms"`
	StartDegree int                        `json:"start_degree"`
	MaxDegree   int                        `json:"max_degree"`
	Static      []AdaptiveClusteringStatic `json:"static"`
	PhaseA      AdaptiveClusteringPhase    `json:"phase_a"`
	PhaseB      AdaptiveClusteringPhase    `json:"phase_b"`
}

// latencySample is one client-observed completion, stamped with its offset
// from scenario start so it can be assigned to a phase, and with the
// clustering degree in force when it completed.
type latencySample struct {
	at     time.Duration
	lat    time.Duration
	degree int
}

// phaseRun is one scenario's outcome in one capacity phase: the steady-state
// mean latency and clustering degree, and the degree when the phase ended.
type phaseRun struct {
	mean    time.Duration
	degMean float64
	degEnd  int
}

// runAdaptiveClusteringScenario drives one mode (static degree or adaptive)
// through both capacity phases and returns each phase's outcome.
func runAdaptiveClusteringScenario(ctx context.Context, cfg AdaptiveClusteringConfig, degree int, adaptive bool) (a, b phaseRun, err error) {
	gate := newCapacityGate(cfg.SlotsA)
	connector := &backend.FuncConnector{
		ServiceName: "dbscript",
		DoFn: func(ctx context.Context, payload []byte) ([]byte, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			_, n := sqldb.ParseRepeat(string(payload))
			gate.acquire()
			// The paper's CGI cost model: one connection handshake, then the
			// query workload repeated once per clustered request.
			time.Sleep(cfg.Handshake + time.Duration(n)*cfg.PerItem)
			gate.release()
			return []byte("result"), nil
		},
	}
	opts := []broker.Option{
		broker.WithThreshold(cfg.Clients*2, 1),
		broker.WithWorkers(cfg.Clients),
		broker.WithClustering(cluster.RepeatCombiner{}, degree, cfg.BatchWait),
	}
	if adaptive {
		opts = append(opts, broker.WithAdaptiveDegree(cluster.AdaptiveConfig{
			MaxDegree:    cfg.MaxDegree,
			EpochBatches: cfg.EpochBatches,
			Hysteresis:   cfg.Hysteresis,
		}))
	}
	brk, err := broker.New(connector, opts...)
	if err != nil {
		return a, b, err
	}
	defer brk.Close()

	const query = "SELECT id, name, score FROM records WHERE score BETWEEN 100 AND 140"
	var mu sync.Mutex
	var samples []latencySample
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				t0 := time.Now()
				resp := brk.Handle(runCtx, &broker.Request{
					Payload: []byte(query),
					Class:   qos.Class1,
					NoCache: true,
				})
				if resp.Status != broker.StatusOK {
					continue // ctx cancellation at scenario end
				}
				mu.Lock()
				samples = append(samples, latencySample{at: t0.Sub(start), lat: time.Since(t0), degree: brk.ClusterDegree()})
				mu.Unlock()
			}
		}()
	}

	sleepOrCancel := func(d time.Duration) error {
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := sleepOrCancel(cfg.PhaseLen); err != nil {
		stop()
		wg.Wait()
		return a, b, err
	}
	a.degEnd = brk.ClusterDegree()
	gate.setCapacity(cfg.SlotsB)
	if err := sleepOrCancel(cfg.PhaseLen); err != nil {
		stop()
		wg.Wait()
		return a, b, err
	}
	b.degEnd = brk.ClusterDegree()
	stop()
	wg.Wait()

	steady := func(p *phaseRun, from, to time.Duration) {
		var sum time.Duration
		var degrees, n int
		for _, s := range samples {
			if s.at >= from && s.at < to {
				sum += s.lat
				degrees += s.degree
				n++
			}
		}
		if n > 0 {
			p.mean, p.degMean = sum/time.Duration(n), float64(degrees)/float64(n)
		}
	}
	steady(&a, cfg.Settle, cfg.PhaseLen)
	steady(&b, cfg.PhaseLen+cfg.Settle, 2*cfg.PhaseLen)
	if a.mean == 0 || b.mean == 0 {
		return a, b, fmt.Errorf("experiments: no steady-state samples (degree %d, adaptive %v)", degree, adaptive)
	}
	return a, b, nil
}

// RunAdaptiveClustering runs the fig7a ablation: every static degree plus
// the adaptive controller through a mid-run backend-capacity step.
func RunAdaptiveClustering(ctx context.Context, cfg AdaptiveClusteringConfig) (*AdaptiveClusteringResult, error) {
	if cfg.Clients < 1 || cfg.SlotsA < 1 || cfg.SlotsB < 1 || len(cfg.Degrees) == 0 ||
		cfg.StartDegree < 1 || cfg.MaxDegree < cfg.StartDegree ||
		cfg.PhaseLen <= 0 || cfg.Settle <= 0 || cfg.Settle >= cfg.PhaseLen {
		return nil, fmt.Errorf("experiments: bad adaptive clustering parameters %+v", cfg)
	}

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	res := &AdaptiveClusteringResult{
		Clients:     cfg.Clients,
		HandshakeMs: ms(cfg.Handshake),
		PerItemMs:   ms(cfg.PerItem),
		StartDegree: cfg.StartDegree,
		MaxDegree:   cfg.MaxDegree,
	}

	type phaseExtremes struct {
		bestDeg, worstDeg   int
		bestMean, worstMean time.Duration
	}
	extremes := [2]phaseExtremes{}
	for _, degree := range cfg.Degrees {
		a, b, err := runAdaptiveClusteringScenario(ctx, cfg, degree, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: static degree %d: %w", degree, err)
		}
		res.Static = append(res.Static, AdaptiveClusteringStatic{
			Degree:       degree,
			PhaseAMeanMs: ms(a.mean),
			PhaseBMeanMs: ms(b.mean),
		})
		for i, mean := range []time.Duration{a.mean, b.mean} {
			e := &extremes[i]
			if e.bestDeg == 0 || mean < e.bestMean {
				e.bestDeg, e.bestMean = degree, mean
			}
			if e.worstDeg == 0 || mean > e.worstMean {
				e.worstDeg, e.worstMean = degree, mean
			}
		}
	}

	adaptA, adaptB, err := runAdaptiveClusteringScenario(ctx, cfg, cfg.StartDegree, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: adaptive: %w", err)
	}

	mkPhase := func(slots int, e phaseExtremes, adapt phaseRun) AdaptiveClusteringPhase {
		p := AdaptiveClusteringPhase{
			Slots:              slots,
			BestDegree:         e.bestDeg,
			BestMeanMs:         ms(e.bestMean),
			WorstDegree:        e.worstDeg,
			WorstMeanMs:        ms(e.worstMean),
			AdaptiveMeanMs:     ms(adapt.mean),
			AdaptiveDegreeEnd:  adapt.degEnd,
			AdaptiveDegreeMean: adapt.degMean,
		}
		if e.bestMean > 0 {
			p.AdaptiveVsBest = float64(adapt.mean) / float64(e.bestMean)
			p.WorstVsBest = float64(e.worstMean) / float64(e.bestMean)
		}
		return p
	}
	res.PhaseA = mkPhase(cfg.SlotsA, extremes[0], adaptA)
	res.PhaseB = mkPhase(cfg.SlotsB, extremes[1], adaptB)
	return res, nil
}
