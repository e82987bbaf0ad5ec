// Command backendd runs one backend server of the kind the service-broker
// testbed uses: the SQL database, the LDAP-style directory, the mail
// service, a bounded-processing-time CGI web server, or the supply-chain
// effect store (HOLD/RELEASE/PURCHASE/GET with a mutation counter — the
// exactly-once ground truth for transaction-integrity runs, served over
// HTTP at /supply?cmd=...).
//
// Usage:
//
//	backendd -kind db     -addr 127.0.0.1:7001 -records 42000
//	backendd -kind dir    -addr 127.0.0.1:7002
//	backendd -kind mail   -addr 127.0.0.1:7003
//	backendd -kind cgi    -addr 127.0.0.1:7004 -delay 1s -maxclients 5
//	backendd -kind supply -addr 127.0.0.1:7005
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/ldapdir"
	"servicebroker/internal/mailsvc"
	"servicebroker/internal/metrics"
	"servicebroker/internal/obs"
	"servicebroker/internal/sketch"
	"servicebroker/internal/sqldb"
)

func main() {
	var (
		kind       = flag.String("kind", "db", "backend kind: db, dir, mail, cgi, supply")
		addr       = flag.String("addr", "127.0.0.1:0", "listen address")
		records    = flag.Int("records", sqldb.PaperRecordCount, "db: fixture row count")
		handshake  = flag.Duration("handshake", 0, "db: artificial connection handshake cost")
		delay      = flag.Duration("delay", time.Second, "cgi: bounded processing time")
		maxClients = flag.Int("maxclients", 5, "cgi: max simultaneous requests")
		admin      = flag.String("admin", "", "admin HTTP address for /metrics, /healthz, pprof (empty disables)")
		drainTO    = flag.Duration("drain-timeout", 5*time.Second, "cgi: how long SIGTERM/SIGINT waits for in-flight requests to finish")
		hotkeys    = flag.Int("hotkeys", 0, "cgi: track the top-N hottest request payloads for /hotz (0 disables)")
	)
	flag.Parse()

	if err := run(*kind, *addr, *records, *handshake, *delay, *maxClients, *admin, *drainTO, *hotkeys); err != nil {
		slog.Error("backendd failed", "err", err)
		os.Exit(1)
	}
}

func run(kind, addr string, records int, handshake, delay time.Duration, maxClients int, admin string, drainTimeout time.Duration, hotkeys int) error {
	reg := metrics.NewRegistry()
	reg.Gauge("up").Set(1)
	served := reg.Counter("cgi_requests")
	// Hot-key tracking is only observable at the CGI server, which sees the
	// request payload; the protocol backends (db/dir/mail) are tracked at
	// their broker instead.
	var hk *sketch.Tracker
	if hotkeys > 0 && kind == "cgi" {
		hk = sketch.NewTracker(sketch.Config{TopK: hotkeys})
	}
	var (
		boundAddr string
		shutdown  func() error
	)
	switch kind {
	case "db":
		engine := sqldb.NewEngine()
		slog.Info("loading fixture records", "count", records)
		if err := sqldb.LoadRecords(engine, records); err != nil {
			return err
		}
		srv, err := sqldb.NewServer(engine, addr, sqldb.WithHandshakeDelay(handshake))
		if err != nil {
			return err
		}
		boundAddr, shutdown = srv.Addr().String(), srv.Close

	case "dir":
		dir := ldapdir.NewDirectory()
		if err := seedDirectory(dir); err != nil {
			return err
		}
		srv, err := ldapdir.NewServer(dir, addr)
		if err != nil {
			return err
		}
		boundAddr, shutdown = srv.Addr().String(), srv.Close

	case "mail":
		srv, err := mailsvc.NewServer(mailsvc.NewStore(), addr)
		if err != nil {
			return err
		}
		boundAddr, shutdown = srv.Addr().String(), srv.Close

	case "cgi":
		srv, err := httpserver.NewServer(addr, httpserver.WithMaxClients(maxClients))
		if err != nil {
			return err
		}
		srv.Handle("/cgi", func(req *httpserver.Request) *httpserver.Response {
			served.Inc()
			start := time.Now()
			time.Sleep(delay)
			if hk != nil {
				hk.RecordAccess(req.Query["q"], false)
				hk.RecordLatency(req.Query["q"], time.Since(start))
			}
			return httpserver.Text(fmt.Sprintf("processed %s after %v", req.Query["q"], delay))
		})
		// Graceful stop: finish in-flight CGI work before closing.
		boundAddr, shutdown = srv.Addr().String(), func() error {
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				slog.Warn("drain deadline passed with requests still in flight", "err", err)
			}
			return srv.Close()
		}

	case "supply":
		// The effect store speaks the EffectConnector command language over
		// HTTP: GET /supply?cmd=HOLD+sku-1+2. Mutations are counted, and
		// /supply?cmd=GET+<sku> reads state without counting, so an external
		// harness can audit exactly-once execution end to end.
		store := &backend.EffectConnector{}
		session, err := store.Connect(context.Background())
		if err != nil {
			return err
		}
		srv, err := httpserver.NewServer(addr, httpserver.WithMaxClients(maxClients))
		if err != nil {
			return err
		}
		srv.Handle("/supply", func(req *httpserver.Request) *httpserver.Response {
			served.Inc()
			out, err := session.Do(context.Background(), []byte(req.Query["cmd"]))
			if err != nil {
				return httpserver.Error(400, err.Error())
			}
			return httpserver.Text(string(out))
		})
		srv.Handle("/supply/mutations", func(*httpserver.Request) *httpserver.Response {
			return httpserver.Text(fmt.Sprintf("mutations=%d holds=%d", store.Mutations(), store.TotalHolds()))
		})
		boundAddr, shutdown = srv.Addr().String(), func() error {
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				slog.Warn("drain deadline passed with requests still in flight", "err", err)
			}
			return srv.Close()
		}

	default:
		return fmt.Errorf("unknown kind %q", kind)
	}

	var adminSrv *obs.Server
	if admin != "" {
		adminSrv = obs.New()
		adminSrv.MountRegistry("backend."+kind+".", reg)
		if hk != nil {
			adminSrv.AddRows("/hotz", "backend."+kind, func(w io.Writer, limit int) {
				hk.Snapshot().WriteRows(w, "backend."+kind, limit)
			})
		}
		if err := adminSrv.Start(admin); err != nil {
			return err
		}
		defer adminSrv.Close()
		slog.Info("admin endpoint up", "addr", adminSrv.Addr().String())
	}

	slog.Info("serving", "kind", kind, "addr", boundAddr)
	wait()
	slog.Info("shutting down")
	if adminSrv != nil {
		// /healthz answers "draining" (503 + Retry-After) while in-flight
		// work finishes, so scrapers see an intentional shutdown.
		adminSrv.SetDraining(true)
	}
	return shutdown()
}

// seedDirectory creates the demo tree brokers and examples expect.
func seedDirectory(dir *ldapdir.Directory) error {
	for _, e := range []struct {
		dn    string
		attrs map[string][]string
	}{
		{"dc=example", map[string][]string{"objectclass": {"domain"}}},
		{"ou=users,dc=example", map[string][]string{"objectclass": {"organizationalUnit"}}},
		{"ou=groups,dc=example", map[string][]string{"objectclass": {"organizationalUnit"}}},
	} {
		dn, err := ldapdir.ParseDN(e.dn)
		if err != nil {
			return err
		}
		if err := dir.Add(dn, e.attrs); err != nil {
			return err
		}
	}
	return nil
}

func wait() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}
