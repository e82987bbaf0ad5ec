package servicebroker

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/fleet"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/obs"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/trace"
)

// fleetMember is one pool member the way brokerd deploys it: a traced broker
// behind a gateway and a lease registrar. The backend sits behind a
// FaultConnector so a test can make the member answer error status without
// killing it.
type fleetMember struct {
	t     *testing.T
	fault *backend.FaultConnector
	b     *broker.Broker
	addr  string

	mu  sync.Mutex
	gw  *broker.Gateway
	rgr *registry.Registrar
}

func newFleetMember(t *testing.T, service string) *fleetMember {
	t.Helper()
	fault := &backend.FaultConnector{Inner: &backend.DelayConnector{ServiceName: service, ProcessTime: time.Millisecond}}
	rec := trace.NewRecorder(trace.WithExport(256))
	b, err := broker.New(fault, broker.WithTracer(rec), broker.WithThreshold(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{service: b})
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	m := &fleetMember{t: t, fault: fault, b: b, gw: gw, addr: gw.Addr().String()}
	t.Cleanup(m.close)
	return m
}

func (m *fleetMember) register(service, target string, ttl time.Duration) {
	m.t.Helper()
	rgr, err := registry.NewRegistrar(registry.RegistrarConfig{
		Service:  service,
		Addr:     m.addr,
		Target:   target,
		TTL:      ttl,
		Interval: ttl / 3,
		Load:     m.b.Load,
	})
	if err != nil {
		m.t.Fatal(err)
	}
	m.mu.Lock()
	m.rgr = rgr
	m.mu.Unlock()
}

// crash kills the member like a process death: renewals stop without a
// deregister and the gateway socket closes. No renewal leaves once it
// returns.
func (m *fleetMember) crash() {
	m.mu.Lock()
	gw, rgr := m.gw, m.rgr
	m.gw, m.rgr = nil, nil
	m.mu.Unlock()
	if rgr != nil {
		rgr.Abandon()
	}
	if gw != nil {
		gw.Close()
	}
}

func (m *fleetMember) close() {
	m.crash()
	m.b.Close()
}

// TestFleetObservability drives the front end's fleet view end to end: three
// lease-registered members live on /poolz, a forced failover producing one
// stitched /tracez tree with spans from two brokers, a member crash showing
// expired on /poolz within one lease TTL, and /eventz carrying the lease
// expiry and the breaker-open with the failing request's trace ID.
func TestFleetObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	const (
		service  = "db"
		leaseTTL = 2 * time.Second
	)

	members := []*fleetMember{newFleetMember(t, service), newFleetMember(t, service), newFleetMember(t, service)}

	fe, err := frontend.NewDistributed("127.0.0.1:0",
		members[0].addr,
		[]frontend.Route{{Pattern: "/db", Service: service, DefaultClass: qos.Class3}})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	lsn, err := fe.EnableRegistry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	fe.EnableTracing(rec)
	events := fleet.NewLog(0, nil)
	fe.EnableFleet(events)

	// The frontend's admin plane, wired the way cmd/frontend wires it: the
	// row pages, the trace recorder and the event timeline.
	adminSrv := obs.New()
	for page, render := range fe.AdminPages("frontend") {
		adminSrv.AddRows(page, "frontend", render)
	}
	adminSrv.SetRecorder(rec)
	adminSrv.SetEventLog(events)
	if err := adminSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer adminSrv.Close()

	for _, m := range members {
		m.register(service, lsn.Addr(), leaseTTL)
	}

	page := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + adminSrv.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	waitPage := func(path, desc string, timeout time.Duration, ok func(string) bool) string {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			body := page(path)
			if ok(body) {
				return body
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never showed %s; last:\n%s", path, desc, body)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	// All three members join the pool as live lease rows.
	waitPage("/poolz", "3 live lease rows", 5*time.Second, func(b string) bool {
		for _, m := range members {
			if !strings.Contains(poolRow(b, m.addr), " source=lease state=live ") {
				return false
			}
		}
		return true
	})

	cli := httpserver.NewClient(fe.Addr(), httpserver.WithPersistent(1))
	defer cli.Close()
	premium := func(q string) {
		t.Helper()
		resp, err := cli.Get("/db", map[string]string{"q": q, "qos": "1"})
		if err != nil {
			t.Fatalf("premium request failed: %v", err)
		}
		if resp.Status != 200 || resp.Header["x-broker-status"] != "ok" {
			t.Fatalf("premium request = %d %s %q, want 200 ok",
				resp.Status, resp.Header["x-broker-status"], resp.Body)
		}
	}
	premium("warm")

	// --- (a) forced failover stitches one tree from two brokers -------------
	// The idle pool picks the lowest address first; make that member answer
	// error status (backend down, member alive) so the request fails over
	// with the failed member's spans still on the trace.
	first := members[0]
	for _, m := range members[1:] {
		if m.addr < first.addr {
			first = m
		}
	}
	first.fault.SetDown(true)
	premium("stitched")
	first.fault.SetDown(false)

	tracez := waitPage("/tracez", "a stitched failover tree", 5*time.Second, func(b string) bool {
		return findStitchedTrace(b, first.addr) != ""
	})
	block := findStitchedTrace(tracez, first.addr)
	if !strings.Contains(block, "stage=failover") {
		t.Fatalf("stitched trace missing the failover hop:\n%s", block)
	}

	// --- (b) a killed member reads expired within one lease TTL ------------
	// Premium traffic runs through the crash until one TTL has passed: while
	// the lease is live every request fails over, and the repeated failures
	// open the dead member's pool breaker. The last renewal left before the
	// kill, so the lease ends within one TTL of it; /poolz reads expiry from
	// the lease itself, not from the reconcile sweep, so the row says so as
	// soon as the TTL has run out.
	victim := first
	victim.crash()
	killedAt := time.Now()
	for time.Since(killedAt) < leaseTTL {
		premium("failover")
		time.Sleep(10 * time.Millisecond)
	}
	if row := poolRow(page("/poolz"), victim.addr); !strings.Contains(row, " state=expired") {
		t.Fatalf("one lease TTL after the kill, the victim's /poolz row = %q, want state=expired", row)
	}

	// --- (c) /eventz carries the lease expiry and the traced breaker-open ---
	waitPage("/eventz", "lease expiry and breaker open for the crashed member", 5*time.Second, func(b string) bool {
		var sawExpiry, sawBreaker bool
		for _, line := range strings.Split(b, "\n") {
			if !strings.Contains(line, "member="+victim.addr) {
				continue
			}
			if strings.Contains(line, "kind=lease_expired") {
				sawExpiry = true
			}
			if strings.Contains(line, "kind=breaker_open") && strings.Contains(line, " trace=") {
				sawBreaker = true
			}
		}
		return sawExpiry && sawBreaker
	})
}

// poolRow returns the /poolz row of the member at addr, or "" if none.
func poolRow(body, addr string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, " addr="+addr+" ") {
			return line
		}
	}
	return ""
}

// findStitchedTrace returns the first /tracez block whose spans carry
// broker attributions from failedAddr plus at least one other broker.
func findStitchedTrace(body, failedAddr string) string {
	var block strings.Builder
	brokers := map[string]bool{}
	flush := func() string {
		if brokers[failedAddr] && len(brokers) >= 2 {
			return block.String()
		}
		return ""
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "trace ") {
			if b := flush(); b != "" {
				return b
			}
			block.Reset()
			brokers = map[string]bool{}
		}
		block.WriteString(line)
		block.WriteString("\n")
		if i := strings.Index(line, " broker="); i >= 0 && strings.HasPrefix(line, "  stage=") {
			rest := line[i+len(" broker="):]
			if j := strings.IndexByte(rest, ' '); j >= 0 {
				rest = rest[:j]
			}
			brokers[rest] = true
		}
	}
	return flush()
}
