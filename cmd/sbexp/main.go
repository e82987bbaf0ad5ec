// Command sbexp regenerates the paper's evaluation: every figure and table
// of "Using Service Brokers for Accessing Backend Servers for Web
// Applications" (Chen & Mohapatra, ICDCS 2003), plus the ablation studies
// described in DESIGN.md.
//
// Usage:
//
//	sbexp -exp all                      # everything
//	sbexp -exp fig7                     # request clustering (Figure 7)
//	sbexp -exp fig7a                    # adaptive degree vs static, capacity step
//	sbexp -exp fig9|fig10|table1        # service differentiation
//	sbexp -exp table2|table3|table4     # per-broker drop ratios
//	sbexp -exp ablations                # design-choice ablations
//	sbexp -exp obs                      # tracing-overhead benchmark
//	sbexp -exp overload                 # static vs adaptive admission ablation
//	sbexp -exp hotkey                   # hot-key detection under a popularity flip
//	sbexp -exp txn                      # transaction integrity: escalation + idempotency
//	sbexp -exp wire                     # hot-path throughput: batching + coalescing vs baseline
//	sbexp -scale 20ms                   # wall time per paper second
//	sbexp -quick                        # smaller sweeps for a fast pass
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"servicebroker/internal/experiments"
	"servicebroker/internal/metrics"
	"servicebroker/internal/obs"
	"servicebroker/internal/sqldb"
)

// knownExperiments is the single source of truth for -exp values: the flag
// help, the dispatch check, and the unknown-value error all derive from it.
var knownExperiments = []string{
	"all", "fig7", "fig7a", "fig9", "fig10",
	"table1", "table2", "table3", "table4",
	"ablations", "obs", "overload", "hotkey", "failover", "fleet", "txn", "wire",
}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: "+strings.Join(knownExperiments, ", "))
		scale  = flag.Duration("scale", 20*time.Millisecond, "wall-clock length of one paper second")
		quick  = flag.Bool("quick", false, "smaller sweeps for a fast pass")
		csvDir = flag.String("csv", "", "also write figure/table data as CSV files into this directory")
		admin  = flag.String("admin", "", "admin HTTP address for /metrics and pprof during long sweeps (empty disables)")
	)
	flag.Parse()

	if err := run(*exp, *scale, *quick, *csvDir, *admin); err != nil {
		fmt.Fprintln(os.Stderr, "sbexp:", err)
		os.Exit(1)
	}
}

func run(exp string, scale time.Duration, quick bool, csvDir, admin string) error {
	ctx := context.Background()

	// Long sweeps benefit from live pprof; the progress registry lets an
	// operator watch sections complete from /metrics.
	progress := metrics.NewRegistry()
	sections := progress.Counter("sections_done")
	if admin != "" {
		adminSrv := obs.New()
		adminSrv.MountRegistry("sbexp.", progress)
		if err := adminSrv.Start(admin); err != nil {
			return err
		}
		defer adminSrv.Close()
		fmt.Println("admin endpoint on http://" + adminSrv.Addr().String())
	}
	writeCSV := func(name, content string) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}

	needDiff := map[string]bool{
		"all": true, "fig9": true, "fig10": true,
		"table1": true, "table2": true, "table3": true, "table4": true,
	}[exp]

	if exp == "all" || exp == "fig7" {
		cfg := experiments.DefaultClusteringConfig()
		if quick {
			cfg.Records = 5000
			cfg.Requests = 60
			cfg.Degrees = []int{1, 2, 5, 10, 20, 40}
		}
		fmt.Printf("running request clustering sweep (records=%d, %d clients, degrees=%v)...\n",
			cfg.Records, cfg.Concurrency, cfg.Degrees)
		series, err := experiments.RunClustering(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(experiments.Figure7(series))
		if err := writeCSV("fig7.csv", experiments.Figure7CSV(series)); err != nil {
			return err
		}
		sections.Inc()
	}

	if needDiff {
		cfg := experiments.DefaultDifferentiationConfig(scale)
		if quick {
			cfg.ClientCounts = []int{10, 30, 50, 70, 90}
		}
		fmt.Printf("running service differentiation sweep (scale %v/paper-second, clients=%v)...\n",
			scale, cfg.ClientCounts)
		res, err := experiments.RunDifferentiation(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println()
		if exp == "all" || exp == "fig9" {
			fmt.Println(experiments.Figure9(res))
		}
		if exp == "all" || exp == "fig10" {
			fmt.Println(experiments.Figure10(res))
		}
		if exp == "all" || exp == "table1" {
			fmt.Println(experiments.Table1(res))
		}
		for i, name := range []string{"table2", "table3", "table4"} {
			if exp == "all" || exp == name {
				fmt.Println(experiments.DropTable(res, i))
			}
		}
		for name, content := range experiments.DiffCSVs(res) {
			if err := writeCSV(name, content); err != nil {
				return err
			}
		}
		// The wall-clock claims of Figure 9, checked where a timed run belongs
		// (go test keeps only counts and orderings): API time grows with load,
		// and under the heaviest load the broker answers faster than the API.
		if exp == "all" || exp == "fig9" {
			light, heavy := res.Points[0], res.Points[len(res.Points)-1]
			if heavy.APITime <= light.APITime {
				return fmt.Errorf("fig9: API time did not grow with load: %.2f at %d clients, %.2f at %d",
					light.APITime, light.Clients, heavy.APITime, heavy.Clients)
			}
			if heavy.BrokerTime >= heavy.APITime {
				return fmt.Errorf("fig9: broker (%.2f) not faster than API (%.2f) at %d clients",
					heavy.BrokerTime, heavy.APITime, heavy.Clients)
			}
		}
		sections.Inc()
	}

	if exp == "all" || exp == "ablations" {
		if err := runAblations(ctx, quick); err != nil {
			return err
		}
		sections.Inc()
	}

	if exp == "all" || exp == "obs" {
		if err := runTraceOverhead(ctx, quick); err != nil {
			return err
		}
		sections.Inc()
	}

	if exp == "all" || exp == "overload" {
		if err := runOverload(ctx, quick); err != nil {
			return err
		}
		sections.Inc()
	}

	if exp == "all" || exp == "fig7a" {
		if err := runAdaptiveClustering(ctx, quick); err != nil {
			return err
		}
		sections.Inc()
	}

	if exp == "all" || exp == "hotkey" {
		if err := runHotkeyDetection(ctx, quick); err != nil {
			return err
		}
		sections.Inc()
	}

	if exp == "all" || exp == "failover" {
		if err := runFailover(ctx, quick); err != nil {
			return err
		}
		sections.Inc()
	}

	if exp == "all" || exp == "fleet" {
		if err := runFleetOverhead(ctx, quick); err != nil {
			return err
		}
		sections.Inc()
	}

	if exp == "all" || exp == "txn" {
		if err := runTxnIntegrity(ctx, quick); err != nil {
			return err
		}
		sections.Inc()
	}

	if exp == "all" || exp == "wire" {
		if err := runWireThroughput(ctx, quick); err != nil {
			return err
		}
		sections.Inc()
	}

	for _, known := range knownExperiments {
		if exp == known {
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q; available experiments: %s",
		exp, strings.Join(knownExperiments, ", "))
}

// runAdaptiveClustering runs the fig7a ablation (static clustering degrees vs
// the adaptive controller through a mid-run backend capacity step) and writes
// BENCH_clustering_adaptive.json in the working directory.
func runAdaptiveClustering(ctx context.Context, quick bool) error {
	cfg := experiments.DefaultAdaptiveClusteringConfig(quick)
	fmt.Printf("running adaptive clustering ablation (clients=%d, slots %d→%d, degrees=%v, adaptive max=%d)...\n",
		cfg.Clients, cfg.SlotsA, cfg.SlotsB, cfg.Degrees, cfg.MaxDegree)
	res, err := experiments.RunAdaptiveClustering(ctx, cfg)
	if err != nil {
		return err
	}
	for _, s := range res.Static {
		fmt.Printf("  static degree %-3d phaseA=%7.2fms phaseB=%7.2fms\n",
			s.Degree, s.PhaseAMeanMs, s.PhaseBMeanMs)
	}
	for _, p := range []experiments.AdaptiveClusteringPhase{res.PhaseA, res.PhaseB} {
		fmt.Printf("  slots=%-2d best d=%-3d %7.2fms  worst d=%-3d %7.2fms (%.1fx)  adaptive %7.2fms (%.2fx of best, mean d=%.1f, ended at d=%d)\n",
			p.Slots, p.BestDegree, p.BestMeanMs, p.WorstDegree, p.WorstMeanMs,
			p.WorstVsBest, p.AdaptiveMeanMs, p.AdaptiveVsBest, p.AdaptiveDegreeMean, p.AdaptiveDegreeEnd)
	}
	fmt.Println()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	const benchFile = "BENCH_clustering_adaptive.json"
	if err := os.WriteFile(benchFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", benchFile)
	// The wall-clock claims of Figure 7a, checked where a timed run belongs
	// (go test keeps only the schedule-independent orderings): a wrongly
	// fixed degree hurts by 2x or more, and the controller stays within 35 %
	// of the best static degree on both sides of the capacity step.
	for _, p := range []experiments.AdaptiveClusteringPhase{res.PhaseA, res.PhaseB} {
		if p.WorstVsBest < 2 {
			return fmt.Errorf("fig7a: slots=%d: worst static only %.2fx of best, want >= 2x", p.Slots, p.WorstVsBest)
		}
		if p.AdaptiveVsBest > 1.35 {
			return fmt.Errorf("fig7a: slots=%d: adaptive %.2fx of best static (ended at d=%d, best d=%d), want <= 1.35x",
				p.Slots, p.AdaptiveVsBest, p.AdaptiveDegreeEnd, p.BestDegree)
		}
	}
	return nil
}

// runTxnIntegrity runs the transaction-integrity ablation (flat baseline vs
// step escalation + saga compensation + idempotency on the congested
// three-step purchase, plus duplicate-delivery and wire-overhead sections)
// and writes BENCH_txn.json in the working directory.
func runTxnIntegrity(ctx context.Context, quick bool) error {
	cfg := experiments.DefaultTxnIntegrityConfig(quick)
	fmt.Printf("running transaction integrity ablation (%d purchases, vendor slots=%d, %d duplicated mutations)...\n",
		cfg.Purchases, cfg.VendorSlots, cfg.DuplicateMutations)
	res, err := experiments.RunTxnIntegrity(ctx, cfg)
	if err != nil {
		return err
	}
	for _, m := range []experiments.TxnIntegrityMode{res.Baseline, res.Integrity} {
		fmt.Printf("  %-9s late_aborts=%d/%d (rate %.2f) completed=%d compensations=%d orphaned_holds=%d\n",
			m.Name, m.LateAborts, m.Purchases, m.LateAbortRate, m.Completed,
			m.CompensationsRun, m.OrphanedHolds)
		fmt.Printf("  %-9s duplicates: delivered=%d logical=%d backend_mutations=%d suppressed=%d\n",
			m.Name, m.DuplicatesDelivered, m.LogicalMutations, m.BackendMutations, m.DuplicatesSuppressed)
	}
	fmt.Printf("  wire: untagged %dB, tagged %dB (+%dB), encode %0.fns vs %.0fns\n",
		res.Wire.UntaggedBytes, res.Wire.TaggedBytes, res.Wire.TaggedExtra,
		res.Wire.EncodeUntagged, res.Wire.EncodeTagged)
	fmt.Println()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	const benchFile = "BENCH_txn.json"
	if err := os.WriteFile(benchFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", benchFile)
	return nil
}

// runWireThroughput runs the hot-path throughput benchmark (plain wire path
// vs datagram batching + single-flight coalescing under a duplicate-heavy
// workload) and writes BENCH_wire_throughput.json in the working directory.
func runWireThroughput(ctx context.Context, quick bool) error {
	cfg := experiments.DefaultWireThroughputConfig(quick)
	fmt.Printf("running wire throughput benchmark (%d requests/mode, concurrency=%d, keyspace=%d, backend %v x%d, flush window %v)...\n",
		cfg.Requests, cfg.Concurrency, cfg.Keyspace, cfg.BackendTime, cfg.BackendConcurrent, cfg.FlushWindow)
	res, err := experiments.RunWireThroughput(ctx, cfg)
	if err != nil {
		return err
	}
	for _, m := range []experiments.WireThroughputMode{res.Baseline, res.Optimized} {
		fmt.Printf("  %-17s %8.0f req/s mean=%8.0fµs p95=%8.0fµs backend_trips=%d frames/datagrams out: client %d/%d server %d/%d\n",
			m.Name, m.ReqPerSec, m.MeanMicros, m.P95Micros, m.BackendTrips,
			m.ClientFramesOut, m.ClientDatagramsOut, m.ServerFramesOut, m.ServerDatagramsOut)
	}
	fmt.Printf("  speedup=%.2fx syscalls_saved=%.1f%% coalesced=%d shared=%d decode_allocs/op=%.1f\n\n",
		res.SpeedupX, res.SyscallsSavedPct, res.Optimized.Coalesced, res.Optimized.CoalesceShared,
		res.DecodeAllocsPerOp)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	const benchFile = "BENCH_wire_throughput.json"
	if err := os.WriteFile(benchFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", benchFile)
	return nil
}

// runFailover rolls a deterministic kill/hang/partition schedule through a
// replicated broker pool and through a single-broker baseline, and writes
// BENCH_availability.json in the working directory.
func runFailover(ctx context.Context, quick bool) error {
	cfg := experiments.DefaultFailoverConfig(quick)
	fmt.Printf("running broker failover ablation (%d members, %d kills, %v down each, deadline %v, run %v)...\n",
		cfg.Members, cfg.Kills, cfg.DownFor, cfg.Deadline, cfg.Run)
	res, err := experiments.RunBrokerFailover(ctx, cfg)
	if err != nil {
		return err
	}
	for _, m := range []experiments.FailoverMode{res.Single, res.Pool} {
		fmt.Printf("  %-7s members=%d availability=%6.2f%% issued=%d ok=%d stale=%d errors=%d premium_lost=%d failovers=%d lease_expirations=%d rejoins=%d\n",
			m.Name, m.Members, m.Availability*100, m.Issued, m.OK, m.Stale, m.Errors,
			m.PremiumLost, m.Failovers, m.LeaseExpirations, m.LeaseRejoins)
	}
	fmt.Println()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	const benchFile = "BENCH_availability.json"
	if err := os.WriteFile(benchFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", benchFile)
	// The headline claims of the timed run (go test keeps only single <
	// pool and the lease expirations): the pool answers 99 % within the
	// deadline and loses no premium request across the schedule.
	if res.Pool.Availability < 0.99 {
		return fmt.Errorf("failover: pool availability %.4f, want >= 0.99", res.Pool.Availability)
	}
	if res.Pool.PremiumLost != 0 {
		return fmt.Errorf("failover: pool lost %d premium requests across the schedule", res.Pool.PremiumLost)
	}
	return nil
}

// runHotkeyDetection replays a ground-truth Zipf workload with a mid-run
// popularity flip through the hot-key tracker and writes BENCH_hotkey.json
// in the working directory.
func runHotkeyDetection(ctx context.Context, quick bool) error {
	cfg := experiments.DefaultHotkeyConfig(quick)
	fmt.Printf("running hot-key detection benchmark (keys=%d, zipf s=%.1f, %d requests/phase, top-k=%d)...\n",
		cfg.Keys, cfg.Skew, cfg.RequestsPerPhase, cfg.TopK)
	res, err := experiments.RunHotkeyDetection(ctx, cfg)
	if err != nil {
		return err
	}
	for _, p := range []experiments.HotkeyPhase{res.PhaseA, res.PhaseB} {
		fmt.Printf("  %-8s recall=%.2f rank_recall=%.2f skew_est=%.2f\n",
			p.Name, p.Recall, p.RankRecall, p.SkewEstimate)
	}
	fmt.Printf("  flip detected after %d requests (%v); memory=%dB record=%.0fns/op\n",
		res.DetectionRequests, res.DetectionLatency, res.MemoryBytes, res.RecordNsPerOp)
	fmt.Println()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	const benchFile = "BENCH_hotkey.json"
	if err := os.WriteFile(benchFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", benchFile)
	return nil
}

// runOverload runs the step-overload ablation (static threshold vs adaptive
// admission) and writes BENCH_overload.json in the working directory.
func runOverload(ctx context.Context, quick bool) error {
	cfg := experiments.DefaultOverloadConfig(quick)
	fmt.Printf("running overload ablation (backend slots=%d, flood clients=%d, threshold=%d, latency target=%s)...\n",
		cfg.BackendSlots, cfg.FloodClients, cfg.Threshold, cfg.LatencyTarget)
	res, err := experiments.RunOverloadAblation(ctx, cfg)
	if err != nil {
		return err
	}
	for _, m := range []experiments.OverloadMode{res.Static, res.Adaptive} {
		fmt.Printf("  %-8s probe p95 unloaded=%7.0fµs overloaded=%7.0fµs (%.1fx) shed=%d evicted=%d limit=%d\n",
			m.Name, m.UnloadedP95Micros, m.LoadedP95Micros, m.DegradationRatio,
			m.ShedTotal, m.SojournEvictions, m.FinalLimit)
	}
	fmt.Println()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	const benchFile = "BENCH_overload.json"
	if err := os.WriteFile(benchFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", benchFile)
	return nil
}

// runTraceOverhead benchmarks the observability layer's cost on the Figure 9
// access path (tracing off vs on vs on+sampling) and writes the result to
// BENCH_trace_overhead.json in the working directory.
func runTraceOverhead(ctx context.Context, quick bool) error {
	cfg := experiments.DefaultTraceOverheadConfig(quick)
	fmt.Printf("running tracing-overhead benchmark (records=%d, %d requests/mode, concurrency=%d)...\n",
		cfg.Records, cfg.Requests, cfg.Concurrency)
	res, err := experiments.RunTraceOverhead(ctx, cfg)
	if err != nil {
		return err
	}
	for _, m := range []experiments.TraceOverheadMode{res.Off, res.Traced, res.Sampled} {
		fmt.Printf("  %-8s mean=%9.0fµs p95=%9.0fµs overhead=%+5.2f%% spans merged=%d\n",
			m.Name, m.MeanMicros, m.P95Micros, m.OverheadPct, m.SpansMerged)
	}
	fmt.Println()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	const benchFile = "BENCH_trace_overhead.json"
	if err := os.WriteFile(benchFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", benchFile)
	return nil
}

// runFleetOverhead benchmarks the fleet federation plane's cost on the
// Figure 9 access path (no scraper vs a federator sweeping the member's
// admin plane during load) and writes BENCH_fleet_overhead.json in the
// working directory.
func runFleetOverhead(ctx context.Context, quick bool) error {
	cfg := experiments.DefaultFleetOverheadConfig(quick)
	fmt.Printf("running fleet federation overhead benchmark (records=%d, %d requests/mode, concurrency=%d, scrape every %v)...\n",
		cfg.Records, cfg.Requests, cfg.Concurrency, cfg.ScrapeInterval)
	res, err := experiments.RunFleetOverhead(ctx, cfg)
	if err != nil {
		return err
	}
	for _, m := range []experiments.FleetOverheadMode{res.Off, res.Federated} {
		fmt.Printf("  %-10s mean=%9.0fµs p95=%9.0fµs overhead=%+5.2f%%\n",
			m.Name, m.MeanMicros, m.P95Micros, m.OverheadPct)
	}
	fmt.Printf("  federator: scrapes=%d errors=%d federated series=%d\n\n",
		res.Scrapes, res.ScrapeErrors, res.FederatedSeries)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	const benchFile = "BENCH_fleet_overhead.json"
	if err := os.WriteFile(benchFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", benchFile)
	return nil
}

func runAblations(ctx context.Context, quick bool) error {
	requests := 200
	if quick {
		requests = 60
	}

	fmt.Println("Ablation — persistent vs per-request connections")
	for _, cost := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
		res, err := experiments.RunConnectionAblation(ctx, cost, requests)
		if err != nil {
			return err
		}
		fmt.Printf("  connect=%-8v API mean=%-12v broker mean=%-12v speedup=%.1fx\n",
			res.ConnectCost, res.APIMean, res.BrokerMean,
			float64(res.APIMean)/float64(res.BrokerMean))
	}
	fmt.Println()

	fmt.Println("Ablation — result caching under a hot-spot workload (movie-schedule scenario)")
	res, err := experiments.RunCacheAblation(ctx, 3*time.Millisecond, requests*2, 10, 0.9)
	if err != nil {
		return err
	}
	fmt.Printf("  uncached: mean=%-12v backend queries=%d\n", res.UncachedMean, res.UncachedBackend)
	fmt.Printf("  cached:   mean=%-12v backend queries=%d hit ratio=%.2f\n\n",
		res.CachedMean, res.CachedBackend, res.HitRatio)

	fmt.Println("Ablation — load balancing policies on heterogeneous replicas")
	lb, err := experiments.RunLoadBalanceComparison(ctx, requests)
	if err != nil {
		return err
	}
	for name, mean := range lb.Mean {
		fmt.Printf("  %-20s mean=%v\n", name, mean)
	}
	fmt.Println()

	fmt.Println("Ablation — prefetching a periodically updated source (news headlines)")
	pf, err := experiments.RunPrefetchAblation(ctx, 8*time.Millisecond, 12, 4)
	if err != nil {
		return err
	}
	fmt.Printf("  without prefetch: mean=%-12v hit ratio=%.2f\n", pf.NoPrefetchMean, pf.NoPrefetchHit)
	fmt.Printf("  with prefetch:    mean=%-12v hit ratio=%.2f (%d prefetches)\n\n",
		pf.PrefetchMean, pf.PrefetchHit, pf.Prefetched)

	fmt.Println("Ablation — centralized vs distributed deployment models")
	mc, err := experiments.RunModelComparison(ctx, requests/2)
	if err != nil {
		return err
	}
	fmt.Printf("  distributed per-request mean: %v\n", mc.DistributedMean)
	fmt.Printf("  centralized per-request mean: %v (admission check included)\n", mc.CentralizedMean)
	fmt.Printf("  centralized aborts under overload: %d; listener updates processed: %d\n\n",
		mc.CentralizedAborts, mc.ListenerUpdates)

	fmt.Println("Ablation — failover: one of three replicas killed mid-run")
	fo, err := experiments.RunFailoverAblation(ctx, requests)
	if err != nil {
		return err
	}
	fmt.Printf("  baseline (no resilience): %d ok, %d errors\n", fo.BaselineOK, fo.BaselineErrors)
	fmt.Printf("  resilient (retry+breaker): %d ok, %d errors (breaker opens: %d)\n\n",
		fo.ResilientOK, fo.ResilientErrors, fo.BreakerOpens)

	fmt.Println("Ablation — transaction-step priority escalation under overload")
	tx, err := experiments.RunTxnAblation(ctx, 30)
	if err != nil {
		return err
	}
	fmt.Printf("  flat class-3 step-3 drops:      %d/30\n", tx.FlatLateDrops)
	fmt.Printf("  escalated class-3 step-3 drops: %d/30\n\n", tx.EscalatedLateDrops)

	// Keep the fixture constant name referenced so readers can find it.
	fmt.Printf("(clustering fixture: %s table, paper size %d rows)\n",
		sqldb.RecordsTable, sqldb.PaperRecordCount)
	return nil
}
