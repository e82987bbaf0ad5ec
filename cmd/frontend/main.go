// Command frontend runs the front-end web server in either deployment
// model from the paper's §IV: distributed (brokers decide; Figure 5) or
// centralized (the web server runs admission control against the load its
// brokers' leases carry; Figure 4).
//
// Each -route flag declares one URL route as
//
//	pattern=service
//
// The handler forwards the "q" query parameter as the broker payload and
// reads the QoS class from the "qos" parameter. Multi-step transactions tag
// requests with "txn" and "step" (the broker escalates late steps under
// overload), and a mutating step adds an "idem" idempotency key so a retried
// or failed-over delivery replays the recorded first outcome instead of
// re-executing (DESIGN.md §14). Example:
//
//	frontend -model distributed -addr 127.0.0.1:8080 \
//	         -gateway 127.0.0.1:6000 -route /db=db -route /dir=dir
//
// -gateway accepts several "|"-separated addresses; the front end then
// routes each request across the replicated broker pool with health-weighted
// failover. With -registry the pool additionally discovers members through
// lease registration (brokerd -register-to) on a lease listener bound to
// -registry-listen. The centralized model always has that listener, bound to
// -load-listen: point brokerd's -register-to at the address this command
// prints as its lease listener. With -admin, pool membership and each
// member's load are served on the admin plane's /poolz.
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

	"servicebroker/internal/fleet"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/metrics"
	"servicebroker/internal/obs"
	"servicebroker/internal/sketch"
	"servicebroker/internal/slo"
	"servicebroker/internal/trace"
	"servicebroker/internal/tsdb"
)

type routeFlags []string

func (r *routeFlags) String() string { return strings.Join(*r, ",") }

func (r *routeFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	var routes routeFlags
	var (
		model       = flag.String("model", "distributed", "deployment model: distributed or centralized")
		addr        = flag.String("addr", "127.0.0.1:0", "HTTP listen address")
		gateway     = flag.String("gateway", "", `broker gateway UDP address(es), "|"-separated (required)`)
		listenAddr  = flag.String("load-listen", "127.0.0.1:0", "centralized: UDP address for broker leases (brokerd -register-to)")
		registryOn  = flag.Bool("registry", false, "discover pool members via lease registration (brokerd -register-to)")
		registryLsn = flag.String("registry-listen", "127.0.0.1:0", "distributed: UDP address for the lease listener (centralized reuses -load-listen)")
		maxClients  = flag.Int("maxclients", 0, "cap simultaneous request processing (0 = unlimited)")
		admin       = flag.String("admin", "", "admin HTTP address for /metrics, /tracez (empty disables)")
		traceSample = flag.Float64("trace-sample", 1, "fraction of healthy traces retained in the ring (errors, drops, and slow traces always kept)")
		traceSlow   = flag.Duration("trace-slow", 0, "latency above which a healthy trace is always retained (0 disables)")
		traceSeed   = flag.Uint64("trace-seed", 1, "deterministic tail-sampling seed (share across processes for consistent decisions)")
		sampleEvery = flag.Duration("sample-every", time.Second, "time-series sampling interval for /seriesz and /graphz")
		drainTO     = flag.Duration("drain-timeout", 5*time.Second, "how long SIGTERM/SIGINT waits for in-flight requests to finish")
		hotkeys     = flag.Int("hotkeys", 0, "track the top-N hottest request payloads for /hotz (0 disables)")
		sloOn       = flag.Bool("slo", false, "evaluate per-class SLO burn rates over client-observed latency for /sloz")
		fleetScrape = flag.Duration("fleet-scrape", fleet.DefaultScrapeInterval, "fleet federation scrape interval for lease-discovered member admin planes (with -admin and -registry)")
	)
	flag.Var(&routes, "route", "route spec pattern=service (repeatable)")
	flag.Parse()

	sampler := &trace.Sampler{SlowThreshold: *traceSlow, Fraction: *traceSample, Seed: *traceSeed}
	if err := run(*model, *addr, *gateway, *listenAddr, *registryOn, *registryLsn, *maxClients, routes, *admin, sampler, *sampleEvery, *drainTO, *hotkeys, *sloOn, *fleetScrape); err != nil {
		slog.Error("frontend failed", "err", err)
		os.Exit(1)
	}
}

func run(model, addr, gateway, listenAddr string, registryOn bool, registryListen string, maxClients int, routeSpecs routeFlags, admin string, sampler *trace.Sampler, sampleEvery, drainTimeout time.Duration, hotkeys int, sloOn bool, fleetScrape time.Duration) error {
	if gateway == "" {
		return fmt.Errorf("-gateway is required")
	}
	if len(routeSpecs) == 0 {
		return fmt.Errorf("at least one -route is required")
	}
	var routes []frontend.Route
	profiles := make(map[string][]frontend.Demand)
	for _, spec := range routeSpecs {
		pattern, service, ok := strings.Cut(spec, "=")
		if !ok || pattern == "" || service == "" {
			return fmt.Errorf("bad -route %q, want pattern=service", spec)
		}
		routes = append(routes, frontend.Route{Pattern: pattern, Service: service})
		profiles[pattern] = []frontend.Demand{{Service: service, Weight: 1}}
	}

	var httpOpts []httpserver.ServerOption
	if maxClients > 0 {
		httpOpts = append(httpOpts, httpserver.WithMaxClients(maxClients))
	}

	// Client-side workload analytics: the front end sees every request end to
	// end, so its tracker attributes popularity across all brokered services
	// and its SLO engine scores the latency clients actually observe.
	var hk *sketch.Tracker
	if hotkeys > 0 {
		hk = sketch.NewTracker(sketch.Config{TopK: hotkeys})
	}
	var sloEng *slo.Engine
	anaReg := metrics.NewRegistry()
	if sloOn {
		sloEng = slo.New(slo.Config{
			Objectives: slo.DefaultObjectives(),
			Logger:     slog.Default(),
			Metrics:    anaReg,
		})
	}

	var fe *frontend.Distributed
	switch model {
	case "distributed":
		d, err := frontend.NewDistributed(addr, gateway, routes, httpOpts...)
		if err != nil {
			return err
		}
		fe = d
	case "centralized":
		c, err := frontend.NewCentralized(addr, gateway, listenAddr, routes, profiles, httpOpts...)
		if err != nil {
			return err
		}
		fe = c.Distributed
		slog.Info("lease listener up", "addr", c.ListenerAddr())
	default:
		return fmt.Errorf("unknown model %q", model)
	}
	defer fe.Close()
	fe.EnableAnalytics(hk, sloEng)
	if registryOn {
		l, err := fe.EnableRegistry(registryListen)
		if err != nil {
			return err
		}
		slog.Info("lease listener up", "addr", l.Addr())
	}

	// The admin plane: the front end's row pages (/poolz, and /hotz, /sloz
	// when it has them), its registries and trace recorder, their time
	// series, and the fleet plane — pool and registry events feed /eventz,
	// and with -registry, lease-discovered members' admin planes are scraped
	// into /fleetz and the federated /metrics section.
	var adminSrv *obs.Server
	if admin != "" {
		adminSrv = obs.New()
		for page, render := range fe.AdminPages("frontend") {
			adminSrv.AddRows(page, "frontend", render)
		}
		traceReg := metrics.NewRegistry()
		rec := trace.NewRecorder(trace.WithMetrics(traceReg), trace.WithSampler(sampler))
		fe.EnableTracing(rec)
		adminSrv.SetRecorder(rec)
		adminSrv.MountRegistry("", traceReg)
		adminSrv.MountRegistry("frontend.", fe.Metrics())
		store := tsdb.New(0)
		defer store.Close()
		store.Mount("", traceReg)
		store.Mount("frontend.", fe.Metrics())
		adminSrv.MountRegistry("frontend.", anaReg)
		store.Mount("frontend.", anaReg)
		if hk != nil {
			store.AddProbe("frontend.hotkey_skew", func() (float64, bool) {
				snap := hk.Snapshot()
				if snap.TotalAccesses == 0 {
					return 0, false
				}
				return snap.Skew, true
			})
		}
		if sloEng != nil {
			// Evaluating once per tick drives the alert state machine even
			// when nobody scrapes /sloz.
			store.AddProbe("frontend.slo_breach_classes", func() (float64, bool) {
				breaching := 0.0
				for _, c := range sloEng.Status().Classes {
					if c.AlertState() != slo.StateOK {
						breaching++
					}
				}
				return breaching, true
			})
		}
		// Fleet observability: the pool and registry publish failover,
		// breaker, and lease events into a shared timeline, and a federator
		// scrapes every lease-discovered member's admin plane.
		events := fleet.NewLog(0, anaReg)
		fe.EnableFleet(events)
		adminSrv.SetEventLog(events)
		if registryOn {
			fleetReg := metrics.NewRegistry()
			fed := fleet.NewFederator(fleet.FederatorConfig{
				Discover: fe.FleetMembers,
				Interval: fleetScrape,
				Metrics:  fleetReg,
				Events:   events,
			})
			adminSrv.SetFederator(fed)
			adminSrv.MountRegistry("", fleetReg)
			// Federation health on /graphz: pool size as the federator sees
			// it, and cumulative scrape failures.
			members := fleetReg.Gauge("fleet_members")
			scrapeErrs := fleetReg.Counter("fleet_scrape_errors_total")
			store.AddProbe("fleet_members", func() (float64, bool) {
				return float64(members.Value()), true
			})
			store.AddProbe("fleet_scrape_errors_total", func() (float64, bool) {
				return float64(scrapeErrs.Value()), true
			})
			fed.Start()
			defer fed.Close()
		}
		adminSrv.SetTSDB(store)
		store.Start(sampleEvery)
		if err := adminSrv.Start(admin); err != nil {
			return err
		}
		defer adminSrv.Close()
		slog.Info("admin endpoint up", "addr", adminSrv.Addr().String())
	}
	slog.Info(model+" model up", "http", fe.Addr(), "gateway", gateway)
	wait()
	slog.Info("shutting down: draining", "timeout", drainTimeout)
	if adminSrv != nil {
		adminSrv.SetDraining(true)
	}
	drain(fe.Drain, drainTimeout)
	return nil
}

func wait() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

// drain runs a graceful-stop function with a deadline, logging (but not
// failing on) an overrun — Close still runs afterwards.
func drain(fn func(context.Context) error, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := fn(ctx); err != nil {
		slog.Warn("drain deadline passed with requests still in flight", "err", err)
	}
}
