// Command benchmark is the repository's one repeatable benchmark: it builds
// the whole HTTP front end → pool → UDP wire → broker → backend connector →
// sqldb stack in-process over loopback, drives it from outside on four
// workloads, checks every answer, and prints end-to-end metrics (-trace 0) or
// per-layer metrics (-trace 1). See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"servicebroker/internal/sqldb"
)

// setupRuns is how many times a run sets the stack up; setup_s is their
// median. The last one is the stack the measured phase uses.
const setupRuns = 3

func main() {
	var (
		name    = flag.String("workload", "", "hot_read, cold_read, mixed_rw or overload_qos")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 25, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run: layer peel and probes, per-layer metrics")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for the result envelope and the spans file")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload hot_read|cold_read|mixed_rw|overload_qos [-seed n] [-seconds n] [-trace 0|1]")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *outDir)
	if err == nil {
		err = res.write(*outDir)
	}
	if err == nil && !res.Correct {
		for _, c := range res.Checks {
			if !c.OK {
				fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", w.name, c.Name)
			}
		}
		os.Exit(1)
	}
	if err == nil {
		err = res.printLine(*trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// metric is one reported number. Window medians carry the per-window extremes.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"window_min,omitempty"`
	Max   *float64 `json:"window_max,omitempty"`
	// Windows holds the per-window values the median was taken over.
	Windows []float64 `json:"windows,omitempty"`
}

// check is one property the workload must have for its numbers to mean what
// its name says, or one output check.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
}

// result is the run envelope written to <out>/<workload>.result.json.
type result struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Windows    int     `json:"windows"`
	// Noisy marks a run the host disturbed: the calibration kernel ran more
	// than 10 % apart before and after, or the open-loop generator could not
	// keep its schedule even in its quiet seconds (gen.late_p99_us >= 2,000).
	// Reported, not failed: no change to the program can cause either.
	Noisy bool `json:"noisy"`

	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Refused   int     `json:"refused"`
	Failed    int     `json:"failed"`
	Checks    []check `json:"checks"`

	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
}

func (r *result) require(ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: fmt.Sprintf(format, args...), OK: ok})
	if !ok {
		r.Correct = false
	}
}

func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+".result.json"), append(buf, '\n'), 0o644)
}

// The metric names BENCHMARK.json lists, in print order. The benchmark
// contract has a traced run print every per-layer metric on every workload,
// so one that does not apply to a workload reads 0 there. The first three
// per-layer metrics are the run's timings: too unsteady on a shared host to
// carry a bound (README, "A/A evidence"), so an untraced run prints them
// below the end-to-end table and only a traced run reports them.
var (
	endToEndMetrics = []string{
		"setup_s", "premium_within_limit_share", "allocs_per_req", "live_heap_mb",
	}
	perLayerMetrics = []string{
		"throughput_rps", "latency_p50_us", "latency_p99_us", "latency_p999_us", "latency_max_us",
		"httpserver.self_us", "httpserver.allocs_per_req",
		"frontend.self_us", "frontend.allocs_per_req",
		"pool.self_us", "pool.allocs_per_req",
		"wire.self_us", "wire.allocs_per_req", "wire.datagrams_per_req",
		"broker.self_us", "broker.allocs_per_req", "broker.coalesced_share", "broker.queue_wait_p50_us", "broker.backend_rtt_p50_us",
		"backend.self_us", "backend.allocs_per_req",
		"sqldb.self_us", "sqldb.allocs_per_req", "sqldb.queries_per_req", "sqldb.query_time_p50_us",
		"cache.hit_ratio", "cache.get_hit_ns", "cache.put_ns",
		"qos.push_pop_ns", "qos.full_share_class1", "qos.full_share_class2", "qos.full_share_class3", "qos.shed_share",
		"txn.idem_ns", "read.latency_p50_us", "write.latency_p50_us", "write.latency_p99_us",
		"runtime.gc_cycles", "runtime.gc_pause_total_ms", "runtime.alloc_bytes_per_req",
		"gen.offered_rps", "gen.late_p50_us", "gen.late_p99_us", "host.calib_before_ns", "host.calib_after_ns",
	}
)

// printLine prints the human-readable table and then, as the last line of
// standard output, the one JSON object the driver reads.
func (r *result) printLine(traced bool) error {
	names, metrics := endToEndMetrics, r.EndToEnd
	if traced {
		names, metrics = perLayerMetrics, r.PerLayer
	}
	fmt.Printf("%s seed=%d windows=%d sent=%d ok=%d refused=%d failed=%d noisy=%v %s %s GOMAXPROCS=%d\n",
		r.Workload, r.Seed, r.Windows, r.Attempted, r.Succeeded, r.Refused, r.Failed, r.Noisy, r.GitSHA, r.GoVersion, r.GOMAXPROCS)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, n := range names {
		m, ok := metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		fmt.Printf("  %-32s %14.4f %s\n", n, m.Value, m.Unit)
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	if !traced {
		for _, n := range perLayerMetrics[:3] {
			m := r.PerLayer[n]
			fmt.Printf("  %-32s %14.4f %s (no bound; windows %.4f to %.4f)\n", n, m.Value, m.Unit, *m.Min, *m.Max)
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

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

func plain(v float64, unit string) metric { return metric{Value: v, Unit: unit} }

func windowed(s spread, unit string) metric {
	return metric{Value: s.Median, Unit: unit, Min: &s.Min, Max: &s.Max, Windows: s.Values}
}

// live is one set-up stack with its generator attached.
type live struct {
	rig *rig
	drv *driver
}

func (l *live) Close() error {
	l.drv.Close()
	return l.rig.Close()
}

// setUp is what setup_s times: fixture load, stack start, dials, and a
// fixed-count warm-up that fills the caches and lets lazy set-up finish.
func setUp(w workload, seed int64, m *mirror) (*live, error) {
	r, err := newRig(w.rig)
	if err != nil {
		return nil, err
	}
	l := &live{rig: r, drv: newDriver(w, seed, m, r.front.Addr())}
	if mismatch := l.drv.warmUp(); mismatch != "" {
		l.Close()
		return nil, fmt.Errorf("warm-up: %s", mismatch)
	}
	return l, nil
}

func run(w workload, seed int64, dur time.Duration, traced bool, outDir string) (*result, error) {
	res := &result{
		Workload: w.name, Seed: seed, Seconds: dur.Seconds(), Traced: traced,
		GitSHA: gitSHA(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Correct:  true,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
	windows := int(dur / w.window)
	if windows < 1 {
		return nil, fmt.Errorf("%s needs at least %v to fill one window", w.name, w.window)
	}
	res.Windows = windows

	var m *mirror
	if w.kind == streamMixed {
		// The fixture is the same in every engine, so the mirror is read from
		// a private one before any stack exists and any write has happened.
		e := sqldb.NewEngine()
		if err := sqldb.LoadRecords(e, sqldb.PaperRecordCount); err != nil {
			return nil, err
		}
		var err error
		if m, err = newMirror(e, seed); err != nil {
			return nil, err
		}
	}

	calibBefore := calibrate()

	// The traced run reports no setup_s, so it sets up once.
	runs := setupRuns
	if traced {
		runs = 1
	}
	var (
		l      *live
		setups []float64
	)
	for i := 0; i < runs; i++ {
		if l != nil {
			if err := l.Close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if l, err = setUp(w, seed, m); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer l.Close()

	runtime.GC()
	before := takeCounters(l.rig)
	ph := l.drv.measure(dur)
	after := takeCounters(l.rig)

	sum := summarize(ph.windows, ph.tail, w.limit)
	lateP50, lateP99 := lateness(ph.late)
	sent := float64(sum.Sent)
	ph.windows, ph.tail, ph.late = nil, nil, nil
	// Twice: a sync.Pool keeps its contents through one collection.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc) / (1 << 20)

	res.Attempted, res.Succeeded, res.Refused, res.Failed = sum.Sent, sum.OK, sum.Refused, sum.Failed
	res.require(ph.mismatch == "", "no wrong answer (first: %q)", ph.mismatch)
	if w.kind == streamMixed {
		why := readBack(l.drv, ph.acked)
		res.require(why == "", "every written id reads back its last acknowledged value (first that does not: %q)", why)
	}

	calibAfter := calibrate()
	drift := calibAfter/calibBefore - 1
	res.Noisy = drift > 0.10 || drift < -0.10 || lateP99.Value >= 2000

	e2e := res.EndToEnd
	e2e["setup_s"] = plain(median(setups), "s")
	e2e["premium_within_limit_share"] = windowed(sum.PremiumShare, "ratio")
	e2e["allocs_per_req"] = plain(float64(after.mallocs-before.mallocs)/sent, "count")
	e2e["live_heap_mb"] = plain(liveHeap, "MB")

	d := after.sub(before)
	pl := res.PerLayer
	pl["throughput_rps"] = windowed(sum.ThroughputRPS, "1/s")
	pl["latency_p50_us"] = windowed(sum.P50us, "us")
	pl["latency_p99_us"] = windowed(sum.P99us, "us")
	pl["latency_p999_us"] = plain(sum.P999us, "us")
	pl["latency_max_us"] = plain(sum.MaxUs, "us")
	pl["cache.hit_ratio"] = plain(ratio(d.cacheHits, d.cacheHits+d.cacheMisses), "ratio")
	pl["sqldb.queries_per_req"] = plain(float64(d.queries)/sent, "count")
	pl["sqldb.query_time_p50_us"] = plain(us(l.rig.db.Metrics().Histogram("query_time").Quantile(0.5)), "us")
	pl["broker.coalesced_share"] = plain(float64(d.coalesced)/sent, "ratio")
	pl["broker.queue_wait_p50_us"] = plain(us(l.rig.broker.Metrics().Histogram("queue_wait").Quantile(0.5)), "us")
	pl["broker.backend_rtt_p50_us"] = plain(us(l.rig.broker.Metrics().Histogram("backend_rtt").Quantile(0.5)), "us")
	for c := 1; c <= 3; c++ {
		pl[fmt.Sprintf("qos.full_share_class%d", c)] = windowed(sum.FullShare[c], "ratio")
	}
	pl["qos.shed_share"] = plain(float64(sum.Refused)/sent, "ratio")
	pl["read.latency_p50_us"] = plain(sum.ReadP50us, "us")
	pl["write.latency_p50_us"] = plain(sum.WriteP50us, "us")
	pl["write.latency_p99_us"] = plain(sum.WriteP99us, "us")
	pl["runtime.gc_cycles"] = plain(float64(d.gcCycles), "count")
	pl["runtime.gc_pause_total_ms"] = plain(float64(d.gcPauseNs)/1e6, "ms")
	pl["runtime.alloc_bytes_per_req"] = plain(float64(d.allocBytes)/sent, "B")
	pl["gen.offered_rps"] = plain(sent/ph.elapsed.Seconds(), "1/s")
	pl["gen.late_p50_us"], pl["gen.late_p99_us"] = lateP50, lateP99
	pl["host.calib_before_ns"] = plain(calibBefore, "ns")
	pl["host.calib_after_ns"] = plain(calibAfter, "ns")

	checkWorkload(res, w, sum)

	if traced {
		if err := peel(res, w, seed, m, l.rig, outDir); err != nil {
			return nil, err
		}
		if w.kind == streamHot || w.kind == streamCold {
			// One caller at P0 must allocate what the two callers of the
			// measured phase did, or the layer budget describes another path.
			var layers float64
			for _, layer := range layerNames {
				layers += pl[layer+".allocs_per_req"].Value
			}
			whole := e2e["allocs_per_req"].Value
			res.require(layers >= 0.97*whole && layers <= 1.03*whole,
				"the layers' allocs_per_req add up to %.2f, within 3 %% of the measured phase's %.2f", layers, whole)
		}
		probes(pl)
	}
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// lateness is how long after their intended time open-loop requests left,
// per lateWindow, in µs. p50 is the window median. p99 is the lower quartile
// over windows of the per-window p99: the generator's own precision, because
// a host stall of 10 ms puts a one-second window's p99 beyond any pacer's
// reach and on a busy host such stalls touch half the windows. The envelope
// keeps every window. It sorts each window in place.
func lateness(late [][]uint32) (p50us, p99us metric) {
	var p50, p99 []float64
	for _, w := range late {
		slices.Sort(w)
		p50, p99 = append(p50, percentile(w, 0.50)/1e3), append(p99, percentile(w, 0.99)/1e3)
	}
	p50us, p99us = windowed(spreadOf(p50), "us"), windowed(spreadOf(p99), "us")
	if n := len(p99); n > 0 {
		sorted := slices.Clone(p99)
		slices.Sort(sorted)
		p99us.Value = sorted[(n+3)/4-1]
	}
	return p50us, p99us
}

// checkWorkload holds each workload to what its name says. The class shares
// are window medians, so a host stall, which sheds class 1 in the windows it
// touches, does not fail a run and a change of behaviour, which shows in
// every window, does.
func checkWorkload(res *result, w workload, sum summary) {
	pl := res.PerLayer
	hit, queries := pl["cache.hit_ratio"].Value, pl["sqldb.queries_per_req"].Value
	switch w.kind {
	case streamHot:
		res.require(hit >= 0.99, "hot_read cache.hit_ratio %.4f >= 0.99", hit)
		res.require(queries <= 0.01, "hot_read sqldb.queries_per_req %.4f <= 0.01", queries)
	case streamCold:
		res.require(hit <= 0.15, "cold_read cache.hit_ratio %.4f <= 0.15", hit)
		res.require(queries >= 0.85, "cold_read sqldb.queries_per_req %.4f >= 0.85", queries)
	case streamMixed:
		share := float64(sum.Writes) / float64(sum.Sent)
		res.require(share >= 0.095 && share <= 0.105, "mixed_rw write share %.4f within 0.10 ± 0.005", share)
	case streamQoS:
		offered, served := pl["gen.offered_rps"].Value, pl["throughput_rps"].Value
		res.require(offered >= 1.8*served, "overload_qos gen.offered_rps %.0f >= 1.8 x throughput_rps %.0f", offered, served)
		c1, c3 := pl["qos.full_share_class1"].Value, pl["qos.full_share_class3"].Value
		res.require(c1 >= 0.99, "overload_qos qos.full_share_class1 %.4f >= 0.99", c1)
		res.require(c3 <= 0.10, "overload_qos qos.full_share_class3 %.4f <= 0.10", c3)
	}
	res.require(sum.Failed == 0, "no request failed (%d did)", sum.Failed)
}

// readBack reads every written id through the front end and compares it with
// the last value a write to it was acknowledged with.
func readBack(d *driver, acked map[int]float64) string {
	ids := make([]int, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		req := request{sql: fmt.Sprintf("SELECT id, score FROM records WHERE id = %d", id), class: 1}
		rep, err := d.entries[0].call(&req)
		if err != nil || rep.status != "ok" {
			return fmt.Sprintf("read back id %d: status %q err %v", id, rep.status, err)
		}
		var gotID int
		var got float64
		if _, err := fmt.Sscanf(string(rep.body), "id\tscore\n%d\t%g\n", &gotID, &got); err != nil || gotID != id || got != acked[id] {
			return fmt.Sprintf("id %d reads back %q, last acknowledged score %v", id, rep.body, acked[id])
		}
	}
	return ""
}
