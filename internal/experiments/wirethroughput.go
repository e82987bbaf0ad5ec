package experiments

import (
	"context"
	"fmt"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/qos"
	"servicebroker/internal/wire"
	"servicebroker/internal/workload"
)

// WireThroughputConfig parameterizes the hot-path throughput benchmark: a
// duplicate-heavy closed-loop workload (a small key space hammered by many
// clients, the shape hot-key skew produces in practice) driven through the
// full wire path (client → UDP gateway → broker → delay backend) twice —
// once with the plain unbatched, uncoalesced configuration and once with
// datagram batching plus single-flight query coalescing enabled.
type WireThroughputConfig struct {
	// Requests per mode (after warmup).
	Requests int
	// Concurrency is the closed-loop client count. Many clients asking for
	// few keys is what creates concurrent in-flight duplicates.
	Concurrency int
	// Keyspace is the number of distinct queries; Concurrency/Keyspace is
	// the average duplication factor coalescing can exploit.
	Keyspace int
	// BackendTime is the bounded per-request backend processing time.
	BackendTime time.Duration
	// BackendConcurrent caps simultaneous backend requests (the paper's
	// backend MaxClients), making wasted duplicate trips expensive.
	BackendConcurrent int
	// FlushWindow is the client batching window in the optimized mode.
	FlushWindow time.Duration
	// Warmup requests run before each measured mode and are discarded.
	Warmup int
}

// DefaultWireThroughputConfig returns the benchmark defaults; quick shrinks
// the request budget for a fast CI pass.
func DefaultWireThroughputConfig(quick bool) WireThroughputConfig {
	cfg := WireThroughputConfig{
		Requests:          3000,
		Concurrency:       32,
		Keyspace:          4,
		BackendTime:       2 * time.Millisecond,
		BackendConcurrent: 4,
		FlushWindow:       200 * time.Microsecond,
		Warmup:            64,
	}
	if quick {
		cfg.Requests = 600
		cfg.Warmup = 24
	}
	return cfg
}

// WireThroughputMode is one measured configuration.
type WireThroughputMode struct {
	Name       string  `json:"name"`
	Requests   int     `json:"requests"`
	ReqPerSec  float64 `json:"req_per_sec"`
	MeanMicros float64 `json:"mean_us"`
	P95Micros  float64 `json:"p95_us"`

	// Wire-level IO accounting on both endpoints. With batching, frames
	// outnumber datagrams; the gap is the syscall (and UDP header) traffic
	// the container format saved.
	ClientFramesOut    uint64 `json:"client_frames_out"`
	ClientDatagramsOut uint64 `json:"client_datagrams_out"`
	ServerFramesOut    uint64 `json:"server_frames_out"`
	ServerDatagramsOut uint64 `json:"server_datagrams_out"`

	// Coalescing accounting (optimized mode only): BackendTrips counts what
	// actually reached the backend connector.
	CoalesceFlights   int64 `json:"coalesce_flights,omitempty"`
	Coalesced         int64 `json:"coalesced,omitempty"`
	CoalesceShared    int64 `json:"coalesce_shared,omitempty"`
	BackendTrips      int64 `json:"backend_trips"`
	BackendTripsSaved int64 `json:"backend_trips_saved"`
}

// WireThroughputResult is the full benchmark output (the "wire" entry of
// BENCH_experiments.json).
type WireThroughputResult struct {
	Requests          int     `json:"requests"`
	Concurrency       int     `json:"concurrency"`
	Keyspace          int     `json:"keyspace"`
	BackendTimeMs     float64 `json:"backend_time_ms"`
	BackendConcurrent int     `json:"backend_concurrent"`
	FlushWindowUs     float64 `json:"flush_window_us"`

	Baseline  WireThroughputMode `json:"baseline"`
	Optimized WireThroughputMode `json:"optimized"`

	// SpeedupX is optimized req/s over baseline req/s.
	SpeedupX float64 `json:"speedup_x"`
	// SyscallsSavedPct is the share of outbound datagrams batching removed
	// in the optimized mode, counted across both endpoints.
	SyscallsSavedPct float64 `json:"syscalls_saved_pct"`
	// Note records the measurement caveat for single-CPU CI hosts.
	Note string `json:"note"`
}

// RunWireThroughput measures end-to-end request throughput through the
// deployed wire path twice — an unbatched, uncoalesced baseline versus
// batching plus coalescing — under a duplicate-heavy workload, and reports
// the speedup, the syscalls batching saved, and the backend trips coalescing
// folded.
func RunWireThroughput(ctx context.Context, cfg WireThroughputConfig) (*WireThroughputResult, error) {
	if cfg.Requests < 1 || cfg.Concurrency < 1 || cfg.Keyspace < 1 ||
		cfg.BackendTime <= 0 || cfg.BackendConcurrent < 1 || cfg.FlushWindow <= 0 {
		return nil, fmt.Errorf("experiments: bad wire throughput parameters %+v", cfg)
	}

	queries := make([][]byte, cfg.Keyspace)
	for i := range queries {
		queries[i] = []byte(fmt.Sprintf("SELECT * FROM records WHERE bucket = %d", i))
	}

	runMode := func(name string, brokerOpts []broker.Option, clientOpts []wire.ClientOption) (*WireThroughputMode, *backend.DelayConnector, error) {
		conn := &backend.DelayConnector{
			ServiceName:   "db",
			ProcessTime:   cfg.BackendTime,
			MaxConcurrent: cfg.BackendConcurrent,
		}
		opts := append([]broker.Option{
			broker.WithThreshold(4*cfg.Concurrency, 3),
			broker.WithWorkers(cfg.Concurrency),
		}, brokerOpts...)
		b, err := broker.New(conn, opts...)
		if err != nil {
			return nil, nil, err
		}
		defer b.Close()
		gw, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{"db": b})
		if err != nil {
			return nil, nil, err
		}
		defer gw.Close()
		cli, err := broker.DialGateway(gw.Addr().String(), clientOpts...)
		if err != nil {
			return nil, nil, err
		}
		defer cli.Close()

		do := func(ctx context.Context, key int) error {
			resp, err := cli.Do(ctx, "db", &broker.Request{Payload: queries[key], Class: qos.Class1})
			if err != nil {
				return err
			}
			if resp.Status != broker.StatusOK {
				return fmt.Errorf("status %v: %v", resp.Status, resp.Err)
			}
			return nil
		}
		for i := 0; i < cfg.Warmup; i++ {
			if err := do(ctx, i%cfg.Keyspace); err != nil {
				return nil, nil, fmt.Errorf("%s warmup: %w", name, err)
			}
		}
		tripsBefore := conn.Calls()
		res, err := workload.ClosedLoop{Concurrency: cfg.Concurrency, Requests: cfg.Requests}.Run(ctx,
			func(ctx context.Context, client, seq int) (qos.Fidelity, error) {
				if err := do(ctx, (client+seq)%cfg.Keyspace); err != nil {
					return 0, err
				}
				return qos.FidelityFull, nil
			})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		mode := &WireThroughputMode{
			Name:         name,
			Requests:     cfg.Requests,
			MeanMicros:   float64(res.Latency.Mean()) / float64(time.Microsecond),
			P95Micros:    float64(res.Latency.Quantile(0.95)) / float64(time.Microsecond),
			BackendTrips: conn.Calls() - tripsBefore,
		}
		if res.Elapsed > 0 {
			mode.ReqPerSec = float64(res.Issued) / res.Elapsed.Seconds()
		}
		cs := cli.IOStats()
		ss := gw.IOStats()
		mode.ClientFramesOut = cs.FramesOut
		mode.ClientDatagramsOut = cs.DatagramsOut
		mode.ServerFramesOut = ss.FramesOut
		mode.ServerDatagramsOut = ss.DatagramsOut
		if st, ok := b.CoalesceStats(); ok {
			mode.CoalesceFlights = st.Flights
			mode.Coalesced = st.Coalesced
			mode.CoalesceShared = st.Shared
			mode.BackendTripsSaved = st.Shared
		}
		return mode, conn, nil
	}

	baseline, _, err := runMode("baseline", nil, nil)
	if err != nil {
		return nil, err
	}
	optimized, _, err := runMode("batched+coalesced",
		[]broker.Option{broker.WithCoalescing()},
		[]wire.ClientOption{wire.WithBatching(cfg.FlushWindow)})
	if err != nil {
		return nil, err
	}

	out := &WireThroughputResult{
		Requests:          cfg.Requests,
		Concurrency:       cfg.Concurrency,
		Keyspace:          cfg.Keyspace,
		BackendTimeMs:     float64(cfg.BackendTime) / float64(time.Millisecond),
		BackendConcurrent: cfg.BackendConcurrent,
		FlushWindowUs:     float64(cfg.FlushWindow) / float64(time.Microsecond),
		Baseline:          *baseline,
		Optimized:         *optimized,
		Note: "single-process loopback run; on 1-CPU CI hosts client, gateway, " +
			"broker, and backend share one core, so absolute req/s understates " +
			"multi-host deployments while the relative speedup holds",
	}
	if baseline.ReqPerSec > 0 {
		out.SpeedupX = optimized.ReqPerSec / baseline.ReqPerSec
	}
	frames := optimized.ClientFramesOut + optimized.ServerFramesOut
	datagrams := optimized.ClientDatagramsOut + optimized.ServerDatagramsOut
	if frames > 0 {
		out.SyscallsSavedPct = float64(frames-datagrams) / float64(frames) * 100
	}
	return out, nil
}
