package servicebroker

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/obs"
	"servicebroker/internal/overload"
	"servicebroker/internal/qos"
)

// TestAdaptiveOverloadEndToEnd drives the whole chain — HTTP front end →
// UDP gateway → adaptive broker → slot-limited backend — through a
// low-priority flood and checks the overload subsystem edge to edge: the
// AIMD limiter walks the admission limit below the static threshold, shed
// responses surface to HTTP clients with a positive x-retry-after-ms hint,
// premium-class probes still complete at full fidelity, and the /limitz
// admin page reports the live limit.
func TestAdaptiveOverloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}

	const (
		threshold    = 32
		floodClients = 32
	)

	// A backend with hard concurrency slots: admitted work beyond the slots
	// queues inside the connector, which is exactly the latency signal the
	// limiter feeds on.
	conn := &backend.DelayConnector{
		ServiceName:   "cgi",
		ProcessTime:   5 * time.Millisecond,
		MaxConcurrent: 4,
	}
	b, err := broker.New(conn,
		broker.WithThreshold(threshold, 3),
		broker.WithWorkers(threshold),
		broker.WithAdaptiveLimit(overload.Config{
			Min:           2,
			Max:           threshold,
			LatencyTarget: 6 * time.Millisecond,
			CutWindow:     20 * time.Millisecond,
		}),
		broker.WithSojournBudget(15*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gw, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{"cgi": b})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	routes := []frontend.Route{{Pattern: "/cgi", Service: "cgi", DefaultClass: qos.Class2}}
	fe, err := frontend.NewDistributed("127.0.0.1:0", gw.Addr().String(), routes)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	// Admin plane with the live limiter wired in, as cmd/brokerd does it.
	adminSrv := obs.New()
	for page, render := range b.AdminPages("cgi") {
		adminSrv.AddRows(page, "cgi", render)
	}
	if err := adminSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer adminSrv.Close()

	// The class-3 flood: closed-loop HTTP clients hammering the CGI route.
	var shedWithHint, floodOK atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < floodClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli := httpserver.NewClient(fe.Addr(), httpserver.WithPersistent(1))
			defer cli.Close()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := cli.Get("/cgi", map[string]string{
					"q": "flood-" + strconv.Itoa(c) + "-" + strconv.Itoa(seq), "qos": "3"})
				if err != nil {
					return // front end shutting down under test teardown
				}
				switch resp.Header["x-broker-status"] {
				case "shed":
					if ms, err := strconv.Atoi(resp.Header["x-retry-after-ms"]); err == nil && ms > 0 {
						shedWithHint.Add(1)
						wait := time.Duration(ms) * time.Millisecond
						if wait > 20*time.Millisecond {
							wait = 20 * time.Millisecond
						}
						time.Sleep(wait)
					}
				case "ok":
					if resp.Status == 200 {
						floodOK.Add(1)
					}
				}
			}
		}(c)
	}

	// Let the limiter feel the overload, then probe the premium class.
	time.Sleep(400 * time.Millisecond)
	probeCli := httpserver.NewClient(fe.Addr(), httpserver.WithPersistent(1))
	defer probeCli.Close()
	probeOK := 0
	for i := 0; i < 20; i++ {
		resp, err := probeCli.Get("/cgi", map[string]string{
			"q": "probe-" + strconv.Itoa(i), "qos": "1"})
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if resp.Status == 200 && resp.Header["x-broker-status"] == "ok" &&
			resp.Header["x-fidelity"] == "full" {
			probeOK++
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Scrape /limitz while the flood is still on, then tear it down.
	limitz := httpGet(t, "http://"+adminSrv.Addr().String()+"/limitz")
	close(stop)
	wg.Wait()

	if shedWithHint.Load() == 0 {
		t.Fatalf("no flood request was shed with a retry-after hint (floodOK=%d)", floodOK.Load())
	}
	if probeOK < 15 {
		t.Fatalf("premium probes OK = %d/20, want the high class mostly unaffected", probeOK)
	}
	sn, ok := b.LimitSnapshot()
	if !ok {
		t.Fatal("adaptive broker reports no limiter snapshot")
	}
	if sn.Limit >= threshold {
		t.Fatalf("limit = %d, want converged below the static threshold %d", sn.Limit, threshold)
	}
	if sn.Cuts == 0 {
		t.Fatalf("limiter never cut under a %d-client flood: %+v", floodClients, sn)
	}
	if !strings.Contains(limitz, "service=cgi limit=") {
		t.Fatalf("/limitz missing live limit line:\n%s", limitz)
	}
	if shed := b.Metrics().Counter("shed_total").Value(); shed == 0 {
		t.Fatal("broker shed_total = 0 under sustained overload")
	}
}
