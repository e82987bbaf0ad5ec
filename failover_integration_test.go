package servicebroker

import (
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/obs"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/testutil"
)

// haMember is one replicated broker behind the HA front end: a gateway
// socket plus a lease registrar, both of which a "crash" destroys without
// deregistering (the lease must lapse at the front end, like a real crash).
type haMember struct {
	t      *testing.T
	broker *broker.Broker
	addr   string // pinned host:port, stable across crash/restart

	mu  sync.Mutex
	gw  *broker.Gateway
	rgr *registry.Registrar
}

func newHAMember(t *testing.T, service string) *haMember {
	t.Helper()
	b, err := broker.New(&backend.DelayConnector{ServiceName: service, ProcessTime: time.Millisecond},
		broker.WithThreshold(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{service: b})
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	m := &haMember{t: t, broker: b, gw: gw, addr: gw.Addr().String()}
	t.Cleanup(m.close)
	return m
}

// register starts lease renewal toward the front end's lease listener.
func (m *haMember) register(service, target string, ttl time.Duration) {
	m.t.Helper()
	rgr, err := registry.NewRegistrar(registry.RegistrarConfig{
		Service:  service,
		Addr:     m.addr,
		Target:   target,
		TTL:      ttl,
		Interval: ttl / 3,
		Load:     m.broker.Load,
	})
	if err != nil {
		m.t.Fatal(err)
	}
	m.mu.Lock()
	m.rgr = rgr
	m.mu.Unlock()
}

// crash kills the member without deregistering: renewals stop (the lease
// lapses at the front end) and the gateway socket closes (peers see refused).
func (m *haMember) crash() {
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

// restart rebinds the gateway on its pinned address (retrying briefly on the
// rebind race) and re-registers its lease.
func (m *haMember) restart(service, target string, ttl time.Duration) {
	m.t.Helper()
	var gw *broker.Gateway
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		gw, err = broker.NewGateway(m.addr, map[string]*broker.Broker{service: m.broker})
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		m.t.Fatalf("rebind %s: %v", m.addr, err)
	}
	m.mu.Lock()
	m.gw = gw
	m.mu.Unlock()
	m.register(service, target, ttl)
}

func (m *haMember) close() {
	m.mu.Lock()
	gw, rgr := m.gw, m.rgr
	m.gw, m.rgr = nil, nil
	m.mu.Unlock()
	if rgr != nil {
		rgr.Close()
	}
	if gw != nil {
		gw.Close()
	}
	m.broker.Close()
}

// TestBrokerPoolFailover drives the broker-tier HA path end to end through
// real sockets: three lease-registered broker replicas behind a distributed
// front end, /poolz reflecting membership, a hard crash of one member with
// premium traffic in flight (zero premium failures allowed), lease expiry
// surfacing on /poolz, and the member rejoining after restart.
//
// This is the chaos-soak target: CI runs it under -race repeatedly, and
// CHAOS_LEAK_CHECK=1 adds a goroutine-leak sweep after teardown.
func TestBrokerPoolFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	const (
		service  = "db"
		leaseTTL = 250 * time.Millisecond
	)

	members := []*haMember{newHAMember(t, service), newHAMember(t, service), newHAMember(t, service)}

	// Member 0 doubles as the static -gateway seed (how cmd/frontend boots
	// before any lease arrives); 1 and 2 are discovered purely via leases.
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
	// /poolz is read from an admin server fed by the front end's PoolStatus,
	// through its handler: nothing is started, so the leak check sees no
	// goroutine of it.
	adminSrv := obs.New()
	adminSrv.AddRows("/poolz", "frontend", func(w io.Writer, _ int) {
		registry.WritePool(w, "frontend", fe.PoolStatus())
	})
	for _, m := range members {
		m.register(service, lsn.Addr(), leaseTTL)
	}

	cli := httpserver.NewClient(fe.Addr(), httpserver.WithPersistent(1))
	defer cli.Close()

	poolz := func() string {
		rw := httptest.NewRecorder()
		adminSrv.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/poolz", nil))
		if rw.Code != 200 {
			t.Fatalf("/poolz: status %d", rw.Code)
		}
		return rw.Body.String()
	}
	waitPoolz := func(desc string, ok func(string) bool) string {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			body := poolz()
			if ok(body) {
				return body
			}
			if time.Now().After(deadline) {
				t.Fatalf("/poolz never showed %s; last:\n%s", desc, body)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	liveRows := func(body string) int {
		n := 0
		for _, line := range strings.Split(body, "\n") {
			if strings.Contains(line, "source=lease") && strings.Contains(line, "state=live") {
				n++
			}
		}
		return n
	}

	// All three leases land and show live on /poolz.
	waitPoolz("3 live lease rows", func(b string) bool { return liveRows(b) == 3 })

	premium := func() {
		t.Helper()
		resp, err := cli.Get("/db", map[string]string{"q": "lookup", "qos": "1"})
		if err != nil {
			t.Fatalf("premium request failed: %v", err)
		}
		if resp.Status != 200 || resp.Header["x-broker-status"] != "ok" {
			t.Fatalf("premium request = %d %s %q, want 200 ok",
				resp.Status, resp.Header["x-broker-status"], resp.Body)
		}
	}
	premium()

	// Crash the member an idle pool picks first (weight ties break on
	// address order), so the very next requests must fail over off it.
	victim := members[0]
	for _, m := range members[1:] {
		if m.addr < victim.addr {
			victim = m
		}
	}

	// Hard-crash it and keep premium traffic flowing for longer than the
	// lease TTL + reconcile interval: every request must fail over to the
	// survivors.
	victim.crash()
	crashUntil := time.Now().Add(leaseTTL + time.Second)
	for time.Now().Before(crashUntil) {
		premium()
		time.Sleep(10 * time.Millisecond)
	}

	// The lapsed lease surfaces on /poolz (an expired tombstone for the
	// crashed addr) and in the lease_expirations counter; the failovers the
	// crash forced are visible on the pool counters.
	body := waitPoolz("expired row for crashed member", func(b string) bool {
		for _, line := range strings.Split(b, "\n") {
			if strings.Contains(line, "addr="+victim.addr) && strings.Contains(line, "state=expired") {
				return true
			}
		}
		return false
	})
	if got := fe.Metrics().Counter("lease_expirations").Value(); got < 1 {
		t.Fatalf("lease_expirations = %d, want >= 1; /poolz:\n%s", got, body)
	}
	if got := fe.Metrics().Counter("pool_failovers").Value(); got < 1 {
		t.Fatalf("pool_failovers = %d, want >= 1 after crashing a member", got)
	}

	// Restart on the same address: the lease re-registers, counts as a
	// rejoin, and the member returns to live rotation on /poolz.
	victim.restart(service, lsn.Addr(), leaseTTL)
	waitPoolz("crashed member live again", func(b string) bool {
		for _, line := range strings.Split(b, "\n") {
			if strings.Contains(line, "addr="+victim.addr) &&
				strings.Contains(line, "source=lease") && strings.Contains(line, "state=live") {
				return true
			}
		}
		return false
	})
	if got := fe.Metrics().Counter("lease_rejoins").Value(); got < 1 {
		t.Fatalf("lease_rejoins = %d, want >= 1 after restart", got)
	}
	premium()

	// Chaos-soak mode: tear everything down and verify no goroutine leaked.
	if os.Getenv("CHAOS_LEAK_CHECK") == "1" {
		for _, m := range members {
			m.close()
		}
		cli.Close()
		fe.Close()
		if err := testutil.CheckLeaks(3 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}
