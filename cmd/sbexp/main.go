// Command sbexp regenerates the paper's evaluation: every figure and table
// of "Using Service Brokers for Accessing Backend Servers for Web
// Applications" (Chen & Mohapatra, ICDCS 2003), plus the ablation studies
// described in DESIGN.md. The experiments are the rows of one table;
// `sbexp -h` lists them.
//
// Usage:
//
//	sbexp -exp all                      # every row of the table
//	sbexp -exp fig9                     # one row
//	sbexp -scale 20ms                   # wall time per paper second
//	sbexp -quick                        # smaller sweeps for a fast pass
//	sbexp -exp all -out results/        # also write BENCH_experiments.json and the figure CSVs there
//
// Nothing is written without -out. The process exits non-zero when a run
// fails or when one of an experiment's checks does not hold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"servicebroker/internal/experiments"
	"servicebroker/internal/metrics"
	"servicebroker/internal/obs"
	"servicebroker/internal/qos"
)

// check is one named claim an experiment makes about its own result. The
// tier-1 tests keep only counts and orderings; the wall-clock claims of a
// timed run are checked here, where a timed run belongs.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	// detail says what was measured, for the failure message.
	detail string
}

// report is what one experiment hands back to the loop in run. Checks and
// Result are its entry in the artifact.
type report struct {
	Checks []check `json:"checks"` // a false one fails the process
	Result any     `json:"result"`
	// text is the paper's rendering of a figure or table. Everything else
	// leaves it empty and prints as its Result.
	text string
	csv  string // written to <name>.csv under -out
}

// rows is a figure's or table's data, one object per x value: the
// experiment's result in the artifact and, through csvOf, its CSV.
type rows []map[string]float64

// env is what an experiment may read: the two sizing flags, and the
// differentiation sweep, which runs once per invocation however many of
// fig9, fig10 and table1–table4 were asked for.
type env struct {
	quick bool
	scale time.Duration
	diff  *experiments.DiffResult
}

type experiment struct {
	name, desc string
	run        func(context.Context, *env) (report, error)
}

// table is the single source of truth for -exp: its help text, "all",
// dispatch, the unknown-name error, the progress counter and the artifact's
// keys all derive from it.
var table = []experiment{
	{"fig7", "request clustering: response time vs degree of clustering (Figure 7)", runFig7},
	{"fig7a", "adaptive clustering degree vs static degrees across a backend capacity step",
		plain(experiments.DefaultAdaptiveClusteringConfig, experiments.RunAdaptiveClustering, fig7aChecks)},
	{"fig9", "API vs broker processing time (Figure 9)", diffView(experiments.Figure9, fig9Row, fig9Checks)},
	{"fig10", "processing time per QoS class (Figure 10)", diffView(experiments.Figure10, fig10Row, nil)},
	{"table1", "completed requests per QoS class (Table I)", diffView(experiments.Table1, table1Row, nil)},
	{"table2", "drop ratios at broker 1 (Table II)", dropView(0)},
	{"table3", "drop ratios at broker 2 (Table III)", dropView(1)},
	{"table4", "drop ratios at broker 3 (Table IV)", dropView(2)},
	{"ablations", "design choices the paper argues qualitatively in §III", runAblations},
	{"overload", "static threshold vs adaptive admission under a step overload",
		plain(experiments.DefaultOverloadConfig, experiments.RunOverloadAblation, nil)},
	{"hotkey", "hot-key detection across a popularity flip",
		plain(experiments.DefaultHotkeyConfig, experiments.RunHotkeyDetection, nil)},
	{"failover", "replicated broker pool vs single broker under a chaos schedule",
		plain(experiments.DefaultFailoverConfig, experiments.RunBrokerFailover, failoverChecks)},
	{"txn", "transaction integrity: escalation, saga compensation, idempotency",
		plain(experiments.DefaultTxnIntegrityConfig, experiments.RunTxnIntegrity, nil)},
	{"wire", "wire throughput: batching + coalescing vs the plain path",
		plain(experiments.DefaultWireThroughputConfig, experiments.RunWireThroughput, nil)},
}

func names(table []experiment) string {
	out := make([]string, len(table))
	for i, x := range table {
		out[i] = x.name
	}
	return strings.Join(out, ", ")
}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: all, "+names(table))
		scale  = flag.Duration("scale", 20*time.Millisecond, "wall-clock length of one paper second")
		quick  = flag.Bool("quick", false, "smaller sweeps for a fast pass")
		outDir = flag.String("out", "", "write BENCH_experiments.json and the figure/table CSVs into this directory (nothing is written without it)")
		admin  = flag.String("admin", "", "admin HTTP address for /metrics and pprof during long sweeps (empty disables)")
	)
	flag.Parse()

	e := &env{quick: *quick, scale: *scale}
	if err := run(context.Background(), table, *exp, e, *outDir, *admin); err != nil {
		fmt.Fprintln(os.Stderr, "sbexp:", err)
		os.Exit(1)
	}
}

// artifact is BENCH_experiments.json: the envelope benchmark/main.go uses,
// under the same names, plus one entry per experiment run.
type artifact struct {
	GitSHA      string            `json:"git_sha"`
	GoVersion   string            `json:"go_version"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	NumCPU      int               `json:"nproc"`
	Quick       bool              `json:"quick"`
	Experiments map[string]report `json:"experiments"`
}

// gitSHA is the revision the binary was built from: "go build" stamps it,
// "go run" does not. A build from an uncommitted tree carries its parent's.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// run executes the experiment named exp ("all": every row of table, in
// order), prints each rendering, and with outDir set writes the CSVs and
// the artifact there. The error names every failed check.
func run(ctx context.Context, table []experiment, exp string, e *env, outDir, admin string) error {
	selected := table
	if exp != "all" {
		selected = nil
		for _, x := range table {
			if x.name == exp {
				selected = []experiment{x}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown experiment %q; available experiments: all, %s", exp, names(table))
		}
	}

	// Long sweeps benefit from live pprof; the progress registry lets an
	// operator watch experiments complete from /metrics.
	progress := metrics.NewRegistry()
	done := progress.Counter("sections_done")
	if admin != "" {
		adminSrv := obs.New()
		adminSrv.MountRegistry("sbexp.", progress)
		if err := adminSrv.Start(admin); err != nil {
			return err
		}
		defer adminSrv.Close()
		fmt.Println("admin endpoint on http://" + adminSrv.Addr().String())
	}
	write := func(name string, data []byte) error {
		if outDir == "" {
			return nil
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}

	art := artifact{
		GitSHA: gitSHA(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Quick: e.quick, Experiments: make(map[string]report, len(selected)),
	}
	var failed []string
	for i, x := range selected {
		fmt.Printf("[%d/%d] %s — %s\n", i+1, len(selected), x.name, x.desc)
		rep, err := x.run(ctx, e)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		if rep.text == "" {
			data, err := indent(rep.Result)
			if err != nil {
				return err
			}
			rep.text = string(data)
		}
		fmt.Print(rep.text)
		if rep.csv != "" {
			if err := write(x.name+".csv", []byte(rep.csv)); err != nil {
				return err
			}
		}
		for _, c := range rep.Checks {
			verdict := "ok"
			if !c.OK {
				verdict = "FAILED"
				failed = append(failed, x.name+": "+c.Name+": "+c.detail)
			}
			fmt.Printf("check %s: %s: %s\n", verdict, c.Name, c.detail)
		}
		fmt.Println()
		rep.Checks = append([]check{}, rep.Checks...) // "[]", not "null", when there are none
		art.Experiments[x.name] = rep
		done.Inc()
	}

	data, err := indent(art)
	if err != nil {
		return err
	}
	if err := write("BENCH_experiments.json", data); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d check(s) failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

func indent(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	return append(data, '\n'), err
}

func runFig7(ctx context.Context, e *env) (report, error) {
	cfg := experiments.DefaultClusteringConfig()
	if e.quick {
		cfg.Records = 5000
		cfg.Requests = 60
		cfg.Degrees = []int{1, 2, 5, 10, 20, 40}
	}
	fmt.Printf("(records=%d, %d clients, degrees=%v)\n", cfg.Records, cfg.Concurrency, cfg.Degrees)
	series, err := experiments.RunClustering(ctx, cfg)
	if err != nil {
		return report{}, err
	}
	points := make(rows, len(series.Points))
	for i, p := range series.Points {
		points[i] = map[string]float64{"degree": p.X, "avg_response_ms": p.Y}
	}
	return report{Result: points, text: experiments.Figure7(series), csv: csvOf(points, "degree")}, nil
}

// sweep returns the differentiation sweep, running it on first use.
func (e *env) sweep(ctx context.Context) (*experiments.DiffResult, error) {
	if e.diff != nil {
		return e.diff, nil
	}
	cfg := experiments.DefaultDifferentiationConfig(e.scale)
	if e.quick {
		cfg.ClientCounts = []int{10, 30, 50, 70, 90}
	}
	fmt.Printf("(service differentiation sweep: scale %v/paper-second, clients=%v)\n", e.scale, cfg.ClientCounts)
	res, err := experiments.RunDifferentiation(ctx, cfg)
	if err != nil {
		return nil, err
	}
	e.diff = res
	return res, nil
}

// diffView is one figure or table of the differentiation sweep: its text
// rendering, row's projection of each point for the artifact and the CSV,
// and (fig9 only) the checks on the sweep.
func diffView(text func(*experiments.DiffResult) string, row func(experiments.DiffPoint) map[string]float64,
	checks func(*experiments.DiffResult) []check) func(context.Context, *env) (report, error) {
	return func(ctx context.Context, e *env) (report, error) {
		res, err := e.sweep(ctx)
		if err != nil {
			return report{}, err
		}
		data := make(rows, len(res.Points))
		for i, p := range res.Points {
			data[i] = row(p)
			data[i]["clients"] = float64(p.Clients)
		}
		rep := report{Result: data, text: text(res), csv: csvOf(data, "clients")}
		if checks != nil {
			rep.Checks = checks(res)
		}
		return rep, nil
	}
}

// perClass returns one column per QoS class, named by format.
func perClass[T int64 | float64](format string, byClass map[qos.Class]T) map[string]float64 {
	row := make(map[string]float64, len(byClass)+2)
	for c, v := range byClass {
		row[fmt.Sprintf(format, c)] = float64(v)
	}
	return row
}

func fig9Row(p experiments.DiffPoint) map[string]float64 {
	return map[string]float64{"api_s": p.APITime, "broker_s": p.BrokerTime}
}

func fig10Row(p experiments.DiffPoint) map[string]float64 {
	row := perClass("qos%d_s", p.ClassTime)
	row["api_s"] = p.APITime
	return row
}

func table1Row(p experiments.DiffPoint) map[string]float64 {
	row := perClass("qos%d_completed", p.ClassCompleted)
	row["api_completed"] = float64(p.APICompleted)
	return row
}

func dropView(broker int) func(context.Context, *env) (report, error) {
	return diffView(
		func(res *experiments.DiffResult) string { return experiments.DropTable(res, broker) },
		func(p experiments.DiffPoint) map[string]float64 {
			return perClass("qos%d_dropratio", p.DropRatio[broker])
		},
		nil)
}

// csvOf renders rows with column x first and the others in name order.
func csvOf(data rows, x string) string {
	cols := []string{x}
	for k := range data[0] {
		if k != x {
			cols = append(cols, k)
		}
	}
	sort.Strings(cols[1:])
	var b strings.Builder
	b.WriteString(strings.Join(cols, ",") + "\n")
	for _, r := range data {
		for i, c := range cols {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(r[c], 'f', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fig9Checks are Figure 9's two wall-clock claims: API time grows with load,
// and under the heaviest load the broker answers faster than the API.
func fig9Checks(res *experiments.DiffResult) []check {
	light, heavy := res.Points[0], res.Points[len(res.Points)-1]
	return []check{
		{"API time grows with load", heavy.APITime > light.APITime,
			fmt.Sprintf("%.2f at %d clients, %.2f at %d", light.APITime, light.Clients, heavy.APITime, heavy.Clients)},
		{"broker faster than API under the heaviest load", heavy.BrokerTime < heavy.APITime,
			fmt.Sprintf("broker %.2f, API %.2f at %d clients", heavy.BrokerTime, heavy.APITime, heavy.Clients)},
	}
}

// fig7aChecks: a wrongly fixed degree hurts by 2x or more, and the
// controller stays within 35 % of the best static degree, on both sides of
// the capacity step.
func fig7aChecks(res *experiments.AdaptiveClusteringResult) []check {
	var checks []check
	for _, p := range []experiments.AdaptiveClusteringPhase{res.PhaseA, res.PhaseB} {
		checks = append(checks,
			check{fmt.Sprintf("slots=%d: worst static degree >= 2x the best", p.Slots), p.WorstVsBest >= 2,
				fmt.Sprintf("%.2fx", p.WorstVsBest)},
			check{fmt.Sprintf("slots=%d: adaptive <= 1.35x the best static degree", p.Slots), p.AdaptiveVsBest <= 1.35,
				fmt.Sprintf("%.2fx (ended at d=%d, best d=%d)", p.AdaptiveVsBest, p.AdaptiveDegreeEnd, p.BestDegree)})
	}
	return checks
}

func failoverChecks(res *experiments.FailoverResult) []check {
	return []check{
		{"pool availability >= 99 % within the deadline", res.Pool.Availability >= 0.99,
			fmt.Sprintf("%.4f (single broker: %.4f)", res.Pool.Availability, res.Single.Availability)},
		{"pool loses no premium request across the schedule", res.Pool.PremiumLost == 0,
			fmt.Sprintf("%d lost", res.Pool.PremiumLost)},
	}
}

// plain is an experiment with no rendering of its own: it runs the default
// (or -quick) configuration and prints as its artifact entry.
func plain[C, R any](config func(quick bool) C, run func(context.Context, C) (R, error),
	checks func(R) []check) func(context.Context, *env) (report, error) {
	return func(ctx context.Context, e *env) (report, error) {
		res, err := run(ctx, config(e.quick))
		if err != nil || checks == nil {
			return report{Result: res}, err
		}
		return report{Result: res, Checks: checks(res)}, nil
	}
}

func runAblations(ctx context.Context, e *env) (report, error) {
	requests, capacity := 200, experiments.DefaultClusteringConfig()
	capacity.Records, capacity.Requests, capacity.Degrees = 20000, 80, []int{1, 8}
	if e.quick {
		requests, capacity.Records, capacity.Requests = 60, 5000, 60
	}
	var b strings.Builder
	result := map[string]any{}

	fmt.Fprintln(&b, "Ablation — persistent vs per-request connections")
	var conns []*experiments.ConnectionAblationResult
	for _, cost := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
		res, err := experiments.RunConnectionAblation(ctx, cost, requests)
		if err != nil {
			return report{}, err
		}
		fmt.Fprintf(&b, "  connect=%-8v API mean=%-12v broker mean=%-12v speedup=%.1fx\n",
			res.ConnectCost, res.APIMean, res.BrokerMean,
			float64(res.APIMean)/float64(res.BrokerMean))
		conns = append(conns, res)
	}
	result["connections"] = conns

	fmt.Fprintln(&b, "\nAblation — result caching under a hot-spot workload (movie-schedule scenario)")
	res, err := experiments.RunCacheAblation(ctx, 3*time.Millisecond, requests*2, 10, 0.9)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(&b, "  uncached: mean=%-12v backend queries=%d\n", res.UncachedMean, res.UncachedBackend)
	fmt.Fprintf(&b, "  cached:   mean=%-12v backend queries=%d hit ratio=%.2f\n",
		res.CachedMean, res.CachedBackend, res.HitRatio)
	result["cache"] = res

	fmt.Fprintln(&b, "\nAblation — load balancing policies on heterogeneous replicas")
	lb, err := experiments.RunLoadBalanceComparison(ctx, requests)
	if err != nil {
		return report{}, err
	}
	for _, p := range lb {
		fmt.Fprintf(&b, "  %-20s mean=%v\n", p.Policy, p.Mean)
	}
	result["load_balance"] = lb

	fmt.Fprintln(&b, "\nAblation — prefetching a periodically updated source (news headlines)")
	pf, err := experiments.RunPrefetchAblation(ctx, 8*time.Millisecond, 12, 4)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(&b, "  without prefetch: mean=%-12v hit ratio=%.2f\n", pf.NoPrefetchMean, pf.NoPrefetchHit)
	fmt.Fprintf(&b, "  with prefetch:    mean=%-12v hit ratio=%.2f (%d prefetches)\n",
		pf.PrefetchMean, pf.PrefetchHit, pf.Prefetched)
	result["prefetch"] = pf

	fmt.Fprintln(&b, "\nAblation — centralized vs distributed deployment models")
	mc, err := experiments.RunModelComparison(ctx, requests/2)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(&b, "  distributed per-request mean: %v\n", mc.DistributedMean)
	fmt.Fprintf(&b, "  centralized per-request mean: %v (admission check included)\n", mc.CentralizedMean)
	fmt.Fprintf(&b, "  centralized aborts under overload: %d; listener updates processed: %d\n",
		mc.CentralizedAborts, mc.ListenerUpdates)
	result["deployment_models"] = mc

	fmt.Fprintln(&b, "\nAblation — failover: one of three replicas killed mid-run")
	fo, err := experiments.RunFailoverAblation(ctx, requests)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(&b, "  baseline (no resilience): %d ok, %d errors\n", fo.BaselineOK, fo.BaselineErrors)
	fmt.Fprintf(&b, "  resilient (retry+breaker): %d ok, %d errors (breaker opens: %d)\n",
		fo.ResilientOK, fo.ResilientErrors, fo.BreakerOpens)
	result["replica_failover"] = fo

	// The clustering win grows as backend capacity shrinks: "clustering must
	// be configured according to the backend server's capacity".
	fmt.Fprintf(&b, "\nAblation — clustering vs backend capacity (%d rows, %d clients)\n", capacity.Records, capacity.Concurrency)
	var caps []map[string]float64
	for _, maxClients := range []int{2, 5, 10} {
		capacity.MaxClients = maxClients
		series, err := experiments.RunClustering(ctx, capacity)
		if err != nil {
			return report{}, err
		}
		d1, d8 := series.Points[0].Y, series.Points[1].Y
		fmt.Fprintf(&b, "  MaxClients=%-3d degree 1=%8.2fms degree 8=%8.2fms (%.1fx)\n", maxClients, d1, d8, d1/d8)
		caps = append(caps, map[string]float64{"max_clients": float64(maxClients), "degree1_ms": d1, "degree8_ms": d8})
	}
	result["clustering_capacity"] = caps

	return report{Result: result, text: b.String()}, nil
}
