// Command brokerd runs one service broker (or several) behind a UDP wire
// gateway — the deployable form of the paper's middleware agent.
//
// Each -service flag declares one broker as
//
//	name:kind:backendAddr
//
// where kind is db, dir, mail, web, cgi, or supply (an in-process
// effect-counting store for the transaction demo), and backendAddr may list
// several replica addresses separated by "|" (the broker then balances
// across them with the least-outstanding policy). Example:
//
//	brokerd -listen 127.0.0.1:6000 \
//	        -service db:db:127.0.0.1:7001|127.0.0.1:7011 \
//	        -service dir:dir:127.0.0.1:7002 \
//	        -threshold 20 -classes 3 -workers 20 -cache 1024
//
// With -register-to the broker self-registers each hosted service at a front
// end's lease listener (DESIGN.md §12): a REGISTER datagram on startup,
// RENEW every third of -lease-ttl with the live load piggybacked, DEREGISTER
// on graceful shutdown — so a replicated broker pool assembles itself, a
// crashed member ages out when its lease lapses, and a centralized front end
// admits against the load the leases carry. With -admin the process serves
// the obs admin plane over HTTP; its index at / lists the pages (/metrics,
// /tracez, /loadz, /breakerz, /limitz, /healthz, pprof, and one page per
// analytics or transaction feature switched on). The -retries, -retry-base,
// -breaker-failures, -breaker-cooldown, and -serve-stale flags configure the
// fault-tolerance layer (see DESIGN.md §8): transient backend errors are retried with capped backoff,
// replicas trip per-replica circuit breakers, and -serve-stale answers
// from expired cache entries at low fidelity when the backend is down.
//
// The overload subsystem (DESIGN.md §9) is configured with -limit-min,
// -limit-max, and -latency-target (AIMD admission limit replacing the
// static -threshold when -limit-max > 0), -sojourn-budget (per-class queue
// wait budgets with CoDel-style eviction), and -drain-timeout (how long
// SIGTERM waits for accepted requests before forcing exit). The live limit
// appears on the admin plane at /limitz.
//
// Request clustering (DESIGN.md §10) is enabled with -cluster N (degree of
// clustering; the combiner follows the backend kind — repeated-query for
// db/cgi, MGET for web) and -cluster-wait (gather window). Adding
// -adaptive-degree M makes the degree self-tuning: a hill-climbing
// controller walks [1, M] tracking the response-time minimum as backend
// capacity shifts, with the live degree on /metrics and /graphz as
// cluster_degree_current.
//
// Workload analytics and SLOs (DESIGN.md §11): -hotkeys N tracks the top-N
// hottest request keys per broker in fixed memory (count-min sketch +
// space-saving), surfaced on the admin plane at /hotz; -slo evaluates
// per-class latency/availability objectives with multi-window burn-rate
// alerting on /sloz (-slo-fast and -slo-slow size the windows).
//
// Transaction integrity (DESIGN.md §14): -txn tracks multi-step transactions
// per broker and escalates late steps' priority; -txn-ttl sweeps abandoned
// transactions (aborting them and running their compensations); -idem N arms
// a bounded idempotency table so retried or failed-over mutating accesses
// replay their recorded first outcome instead of re-executing (-idem-ttl
// bounds how long an outcome is held); -txn-journal makes recorded outcomes
// crash-safe — each service appends to <path>.<service> and a restarted
// brokerd re-arms its idempotency table from the journal before serving.
// Active transactions and idempotency accounting appear on /txnz.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/cluster"
	"servicebroker/internal/fleet"
	"servicebroker/internal/loadbalance"
	"servicebroker/internal/metrics"
	"servicebroker/internal/obs"
	"servicebroker/internal/overload"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/resilience"
	"servicebroker/internal/sketch"
	"servicebroker/internal/slo"
	"servicebroker/internal/trace"
	"servicebroker/internal/tsdb"
	"servicebroker/internal/txn"
)

// exportBuffer bounds the recently finished traces held for span export to
// the front end.
const exportBuffer = 1024

// serviceFlags collects repeated -service flags.
type serviceFlags []string

func (s *serviceFlags) String() string { return strings.Join(*s, ",") }

func (s *serviceFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// config carries every run parameter; zero fields mean the feature is off.
type config struct {
	services        serviceFlags
	listen          string
	threshold       int
	classes         int
	workers         int
	cacheSize       int
	cacheTTL        time.Duration
	clusterDegree   int
	clusterWait     time.Duration
	adaptiveDegree  int
	registerTo      string
	leaseTTL        time.Duration
	admin           string
	retries         int
	retryBase       time.Duration
	breakerFailures int
	breakerCooldown time.Duration
	serveStale      bool
	traceSample     float64
	traceSlow       time.Duration
	traceSeed       uint64
	sampleEvery     time.Duration
	seriesPoints    int
	limitMin        int
	limitMax        int
	latencyTarget   time.Duration
	sojournBudget   time.Duration
	drainTimeout    time.Duration
	hotkeys         int
	coalesce        bool
	slo             bool
	sloFast         time.Duration
	sloSlow         time.Duration
	txn             bool
	txnTTL          time.Duration
	idemCap         int
	idemTTL         time.Duration
	txnJournal      string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "UDP gateway listen address")
	flag.IntVar(&cfg.threshold, "threshold", 20, "outstanding-request threshold per broker")
	flag.IntVar(&cfg.classes, "classes", 3, "number of QoS classes")
	flag.IntVar(&cfg.workers, "workers", 20, "persistent backend sessions per broker")
	flag.IntVar(&cfg.cacheSize, "cache", 0, "result cache entries (0 disables caching)")
	flag.DurationVar(&cfg.cacheTTL, "cache-ttl", 30*time.Second, "result cache TTL")
	flag.IntVar(&cfg.clusterDegree, "cluster", 0, "degree of clustering: max compatible requests combined into one backend access (0 disables)")
	flag.DurationVar(&cfg.clusterWait, "cluster-wait", 2*time.Millisecond, "how long a batch waits to fill after its first request (with -cluster)")
	flag.IntVar(&cfg.adaptiveDegree, "adaptive-degree", 0, "self-tune the clustering degree over [1, N] with a hill-climbing controller; 0 keeps -cluster static")
	flag.StringVar(&cfg.registerTo, "register-to", "", "self-register hosted services at this front-end lease listener (UDP address)")
	flag.DurationVar(&cfg.leaseTTL, "lease-ttl", 3*time.Second, "lease duration requested with -register-to (renewed every ttl/3)")
	flag.StringVar(&cfg.admin, "admin", "", "admin HTTP address for /metrics, /tracez, /loadz, /breakerz (empty disables)")
	flag.IntVar(&cfg.retries, "retries", 2, "retries after a failed backend access (0 disables retrying)")
	flag.DurationVar(&cfg.retryBase, "retry-base", 10*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
	flag.IntVar(&cfg.breakerFailures, "breaker-failures", 5, "consecutive failures that open a replica's circuit breaker")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", time.Second, "how long an open breaker waits before half-open probes")
	flag.BoolVar(&cfg.serveStale, "serve-stale", false, "serve expired cache entries at low fidelity when the backend is unreachable")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1, "fraction of healthy traces retained in the ring (errors, drops, and slow traces always kept)")
	flag.DurationVar(&cfg.traceSlow, "trace-slow", 0, "latency above which a healthy trace is always retained (0 disables)")
	flag.Uint64Var(&cfg.traceSeed, "trace-seed", 1, "deterministic tail-sampling seed (share across processes for consistent decisions)")
	flag.DurationVar(&cfg.sampleEvery, "sample-every", time.Second, "time-series sampling interval for /seriesz and /graphz")
	flag.IntVar(&cfg.seriesPoints, "series-points", 0, "points retained per time series (0 selects the default)")
	flag.IntVar(&cfg.limitMin, "limit-min", 1, "adaptive admission limit floor (with -limit-max)")
	flag.IntVar(&cfg.limitMax, "limit-max", 0, "adaptive admission limit ceiling; 0 keeps the static -threshold")
	flag.DurationVar(&cfg.latencyTarget, "latency-target", 0, "completion latency the adaptive limiter treats as congestion (0 reacts to failures only)")
	flag.DurationVar(&cfg.sojournBudget, "sojourn-budget", 0, "class-1 queue-wait budget; queued requests over their class budget are shed early (0 disables)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 5*time.Second, "how long SIGTERM/SIGINT waits for in-flight requests to finish")
	flag.IntVar(&cfg.hotkeys, "hotkeys", 0, "track the top-N hottest request keys per broker for /hotz (0 disables)")
	flag.BoolVar(&cfg.coalesce, "coalesce", false, "single-flight identical in-flight cacheable queries so N duplicates cost one backend trip")
	flag.BoolVar(&cfg.slo, "slo", false, "evaluate per-class SLO burn rates for /sloz")
	flag.DurationVar(&cfg.sloFast, "slo-fast", 0, "SLO fast burn window (0 selects the default)")
	flag.DurationVar(&cfg.sloSlow, "slo-slow", 0, "SLO slow burn window (0 selects 12x the fast window)")
	flag.BoolVar(&cfg.txn, "txn", false, "track multi-step transactions and escalate late steps' priority")
	flag.DurationVar(&cfg.txnTTL, "txn-ttl", 0, "abort+compensate transactions idle longer than this (0 disables the abandonment sweep)")
	flag.IntVar(&cfg.idemCap, "idem", 0, "idempotency-table entries per broker; duplicate tagged accesses replay their first outcome (0 disables, requires -txn)")
	flag.DurationVar(&cfg.idemTTL, "idem-ttl", 5*time.Minute, "how long a recorded idempotent outcome is held")
	flag.StringVar(&cfg.txnJournal, "txn-journal", "", "crash-safe outcome journal path prefix; each service appends to <path>.<service> and restores it on startup (requires -idem)")
	flag.Var(&cfg.services, "service", "broker spec name:kind:addr[|addr...] (repeatable)")
	flag.Parse()

	if err := run(cfg); err != nil {
		slog.Error("brokerd failed", "err", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if len(cfg.services) == 0 {
		return fmt.Errorf("at least one -service is required")
	}

	// One trace recorder is shared by every hosted broker so /tracez shows
	// the whole process; its registry's names are already fully qualified
	// ("trace.<service>.<stage>"). The recorder always exists — the gateway
	// needs its export buffer to ship spans back to the front end even when
	// the admin plane is off — and tail sampling gates only ring retention.
	var adminSrv *obs.Server
	var store *tsdb.Store
	traceReg := metrics.NewRegistry()
	tracer := trace.NewRecorder(
		trace.WithMetrics(traceReg),
		trace.WithExport(exportBuffer),
		trace.WithSampler(&trace.Sampler{
			SlowThreshold: cfg.traceSlow,
			Fraction:      cfg.traceSample,
			Seed:          cfg.traceSeed,
		}),
	)
	var events *fleet.Log
	if cfg.admin != "" {
		adminSrv = obs.New()
		adminSrv.SetRecorder(tracer)
		adminSrv.MountRegistry("", traceReg)
		store = tsdb.New(cfg.seriesPoints)
		store.Mount("", traceReg)
		adminSrv.SetTSDB(store)
		// Every hosted broker shares one event timeline: limit cuts, breaker
		// flips, SLO transitions, and drains all land on /eventz.
		events = fleet.NewLog(0, traceReg)
		adminSrv.SetEventLog(events)
	}

	if cfg.idemCap > 0 && !cfg.txn {
		return fmt.Errorf("-idem requires -txn (the table is keyed on transaction id and step)")
	}
	if cfg.txnJournal != "" && cfg.idemCap <= 0 {
		return fmt.Errorf("-txn-journal requires -idem (it persists recorded idempotent outcomes)")
	}

	brokers := make(map[string]*broker.Broker, len(cfg.services))
	var journals []*txn.Journal
	defer func() {
		for _, b := range brokers {
			b.Close()
		}
		// Journals close after the brokers: a draining worker may still record
		// an outcome while its broker shuts down.
		for _, j := range journals {
			j.Close()
		}
	}()

	for _, spec := range cfg.services {
		name, kind, addrs, err := parseSpec(spec)
		if err != nil {
			return err
		}
		opts := []broker.Option{
			broker.WithThreshold(cfg.threshold, cfg.classes),
			broker.WithWorkers(cfg.workers),
		}
		var connector backend.Connector
		if len(addrs) == 1 {
			if connector, err = makeConnector(name, kind, addrs[0]); err != nil {
				return err
			}
		} else {
			// Replicated backend: one connector per address behind the
			// least-outstanding balancer (the broker takes a nil connector).
			connectors := make([]backend.Connector, len(addrs))
			for i, addr := range addrs {
				if connectors[i], err = makeConnector(name, kind, addr); err != nil {
					return err
				}
			}
			opts = append(opts, broker.WithReplicas(&loadbalance.LeastOutstanding{}, cfg.workers, connectors...))
		}
		if cfg.cacheSize > 0 {
			opts = append(opts, broker.WithCache(cfg.cacheSize, cfg.cacheTTL))
		}
		if cfg.clusterDegree > 0 {
			if comb := combinerFor(kind); comb != nil {
				opts = append(opts, broker.WithClustering(comb, cfg.clusterDegree, cfg.clusterWait))
				if cfg.adaptiveDegree > 0 {
					opts = append(opts, broker.WithAdaptiveDegree(cluster.AdaptiveConfig{
						MaxDegree: cfg.adaptiveDegree,
					}))
				}
			} else {
				slog.Warn("no combiner for backend kind, clustering disabled",
					"service", name, "kind", kind)
			}
		}
		if cfg.limitMax > 0 {
			opts = append(opts, broker.WithAdaptiveLimit(overload.Config{
				Min:           cfg.limitMin,
				Max:           cfg.limitMax,
				LatencyTarget: cfg.latencyTarget,
			}))
		}
		if cfg.sojournBudget > 0 {
			opts = append(opts, broker.WithSojournBudget(cfg.sojournBudget))
		}
		if cfg.hotkeys > 0 {
			opts = append(opts, broker.WithHotKeys(sketch.Config{TopK: cfg.hotkeys}))
		}
		if cfg.coalesce {
			opts = append(opts, broker.WithCoalescing())
		}
		if cfg.slo {
			objectives := slo.DefaultObjectives()
			if cfg.classes < len(objectives) {
				objectives = objectives[:cfg.classes]
			}
			sloCfg := slo.Config{
				Objectives: objectives,
				FastWindow: cfg.sloFast,
				SlowWindow: cfg.sloSlow,
			}
			if events != nil {
				service := name
				sloCfg.OnTransition = func(class int, from, to string) {
					events.Publish(fleet.Event{
						Kind:    fleet.KindSLOTransition,
						Service: service,
						Detail:  fmt.Sprintf("class %d alert state %s -> %s", class, from, to),
					})
				}
			}
			opts = append(opts, broker.WithSLO(sloCfg))
		}
		if cfg.txn {
			opts = append(opts, broker.WithTransactions())
			if cfg.txnTTL > 0 {
				opts = append(opts, broker.WithTransactionTTL(cfg.txnTTL))
			}
			if cfg.idemCap > 0 {
				if cfg.txnJournal != "" {
					// Crash-safe idempotency: restore the journal into the
					// table first (a restarted broker answers replayed keys
					// without re-executing), then append every newly recorded
					// outcome.
					jpath := cfg.txnJournal + "." + name
					table := txn.NewIdemTable(cfg.idemCap, cfg.idemTTL)
					restored, err := txn.RestoreTable(jpath, table)
					if err != nil {
						return fmt.Errorf("txn journal %s: %w", jpath, err)
					}
					journal, err := txn.OpenJournal(jpath, false)
					if err != nil {
						return fmt.Errorf("txn journal %s: %w", jpath, err)
					}
					journals = append(journals, journal)
					table.OnRecord(func(key string, out txn.Outcome) {
						if err := journal.AppendOutcome(key, out); err != nil {
							slog.Warn("txn journal append failed", "err", err)
						}
					})
					if restored > 0 {
						slog.Info("idempotency journal restored", "service", name, "outcomes", restored)
					}
					opts = append(opts, broker.WithSharedIdempotency(table))
				} else {
					opts = append(opts, broker.WithIdempotency(cfg.idemCap, cfg.idemTTL))
				}
			}
		}
		if events != nil {
			opts = append(opts, broker.WithFleetEvents(events))
		}
		if tracer != nil {
			opts = append(opts, broker.WithTracer(tracer))
		}
		opts = append(opts, broker.WithResilience(resilienceConfig(cfg)))
		b, err := broker.New(connector, opts...)
		if err != nil {
			return fmt.Errorf("broker %s: %w", name, err)
		}
		brokers[name] = b
		if adminSrv != nil {
			adminSrv.MountRegistry("broker."+name+".", b.Metrics())
			for page, render := range b.AdminPages(name) {
				adminSrv.AddRows(page, name, render)
			}
			if cfg.cacheSize > 0 {
				adminSrv.MountView("broker."+name+".", b.CacheShardView)
			}
		}
		if store != nil {
			store.Mount("broker."+name+".", b.Metrics())
			for class := qos.Class(1); int(class) <= cfg.classes; class++ {
				store.AddProbe(fmt.Sprintf("broker.%s.drop_ratio_class_%d", name, class), func() (float64, bool) {
					return b.RefusedRatio(class)
				})
			}
			if cfg.hotkeys > 0 {
				// Snapshotting also refreshes the hotkey_* gauges already
				// mounted from the broker registry.
				store.AddProbe("broker."+name+".hotkey_skew", func() (float64, bool) {
					snap, ok := b.HotKeySnapshot()
					if !ok || snap.TotalAccesses == 0 {
						return 0, false
					}
					return snap.Skew, true
				})
				store.AddProbe("broker."+name+".hotkey_top10_share", func() (float64, bool) {
					snap, ok := b.HotKeySnapshot()
					if !ok || snap.TotalAccesses == 0 {
						return 0, false
					}
					return snap.TopShare(10), true
				})
			}
			if cfg.slo {
				// Evaluating once per tick drives the alert state machine and
				// refreshes the slo_* gauges even when nobody scrapes /sloz.
				store.AddProbe("broker."+name+".slo_breach_classes", func() (float64, bool) {
					st, ok := b.SLOStatus()
					if !ok {
						return 0, false
					}
					breaching := 0.0
					for _, c := range st.Classes {
						if c.AlertState() != slo.StateOK {
							breaching++
						}
					}
					return breaching, true
				})
			}
		}
	}

	gw, err := broker.NewGateway(cfg.listen, brokers)
	if err != nil {
		return err
	}
	defer gw.Close()

	// The admin plane starts before lease registration so each REGISTER can
	// advertise its admin address for fleet federation scraping.
	var adminAddr string
	if adminSrv != nil {
		if err := adminSrv.Start(cfg.admin); err != nil {
			return err
		}
		defer adminSrv.Close()
		adminAddr = adminSrv.Addr().String()
		slog.Info("admin endpoint up", "addr", adminAddr)
	}

	// Lease registration: advertise each hosted service at the front end.
	// The deferred Close runs before the gateway's, so DEREGISTER goes out
	// while the advertised address is still answering.
	if cfg.registerTo != "" {
		var registrars []*registry.Registrar
		defer func() {
			for _, r := range registrars {
				r.Close()
			}
		}()
		for name, b := range brokers {
			r, err := registry.NewRegistrar(registry.RegistrarConfig{
				Service:   name,
				Addr:      gw.Addr().String(),
				Target:    cfg.registerTo,
				TTL:       cfg.leaseTTL,
				Load:      b.Load,
				AdminAddr: adminAddr,
			})
			if err != nil {
				return fmt.Errorf("registrar %s: %w", name, err)
			}
			registrars = append(registrars, r)
		}
		slog.Info("lease registration up", "target", cfg.registerTo, "ttl", cfg.leaseTTL)
	}
	if store != nil {
		store.Start(cfg.sampleEvery)
		defer store.Close()
	}

	slog.Info("gateway up", "addr", gw.Addr().String(), "services", gw.Services())
	if testHookGatewayUp != nil {
		testHookGatewayUp(gw.Addr().String())
	}
	wait()

	// Graceful drain: every broker stops admitting (new requests are shed
	// with a retry-after hint) and runs its accepted work to completion, up
	// to -drain-timeout. The deferred closes then run in reverse order: the
	// registrars send DEREGISTER, then the gateway closes, waiting for
	// in-flight wire handlers so every accepted request's response reaches
	// the client.
	slog.Info("shutting down: draining", "timeout", cfg.drainTimeout)
	if adminSrv != nil {
		// /healthz flips to "draining" (503 + Retry-After) so fleet scrapers
		// and load balancers see an intentional shutdown, not a crash.
		adminSrv.SetDraining(true)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	for name, b := range brokers {
		if err := b.Drain(drainCtx); err != nil {
			slog.Warn("drain deadline passed with work still outstanding",
				"service", name, "err", err)
		}
	}
	slog.Info("drained")
	return nil
}

// testHookGatewayUp, when non-nil, receives the gateway address once serving
// begins. The SIGTERM acceptance test runs `run` in-process and needs the
// ephemeral address before it can open fire.
var testHookGatewayUp func(addr string)

// resilienceConfig maps the fault-tolerance flags onto a resilience.Config.
// -retries counts retries after the first attempt, so MaxAttempts is one
// more; -retries 0 pins MaxAttempts to 1 (a zero value would select the
// package default of 3 attempts).
func resilienceConfig(cfg config) resilience.Config {
	return resilience.Config{
		Retry: resilience.RetryConfig{
			MaxAttempts: cfg.retries + 1,
			BaseDelay:   cfg.retryBase,
		},
		Breaker: resilience.BreakerConfig{
			FailureThreshold: cfg.breakerFailures,
			Cooldown:         cfg.breakerCooldown,
		},
		ServeStale: cfg.serveStale,
	}
}

// parseSpec splits "name:kind:addr[|addr...]" — "|" separates replica
// addresses, since the addresses themselves contain ":".
func parseSpec(spec string) (name, kind string, addrs []string, err error) {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return "", "", nil, fmt.Errorf("bad -service %q, want name:kind:backendAddr", spec)
	}
	for _, addr := range strings.Split(parts[2], "|") {
		if addr == "" {
			return "", "", nil, fmt.Errorf("bad -service %q: empty replica address", spec)
		}
		addrs = append(addrs, addr)
	}
	return parts[0], parts[1], addrs, nil
}

// combinerFor picks the clustering strategy for a backend kind: repeated
// identical queries for db/cgi backends, multipart MGET for web. dir and
// mail accesses have no combining story, so they return nil.
func combinerFor(kind string) cluster.Combiner {
	switch kind {
	case "db", "cgi":
		return cluster.RepeatCombiner{}
	case "web":
		return cluster.MGetCombiner{}
	default:
		return nil
	}
}

// makeConnector builds the backend connector for one broker.
func makeConnector(name, kind, addr string) (backend.Connector, error) {
	switch kind {
	case "db":
		return &backend.SQLConnector{Addr: addr}, nil
	case "dir":
		return &backend.DirConnector{Addr: addr}, nil
	case "mail":
		return &backend.MailConnector{Addr: addr}, nil
	case "web", "cgi":
		return &backend.WebConnector{Addr: addr, ServiceName: name}, nil
	case "supply":
		// The supply-chain effect store lives in the broker process (addr is
		// conventionally "mem"); its mutations are the exactly-once ground
		// truth for the transaction-integrity demo.
		return &backend.EffectConnector{ServiceName: name}, nil
	default:
		return nil, fmt.Errorf("unknown backend kind %q", kind)
	}
}

func wait() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}
