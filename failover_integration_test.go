package servicebroker

import (
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/experiments"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/obs"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/testutil"
)

// newHAMember starts one replicated broker behind a crashable gateway.
func newHAMember(t *testing.T, service string) (*broker.Broker, *experiments.ChaosMember) {
	t.Helper()
	b, err := broker.New(&backend.DelayConnector{ServiceName: service, ProcessTime: time.Millisecond},
		broker.WithThreshold(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	m, err := experiments.NewChaosMember(b, service)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return b, m
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

	brokers := make([]*broker.Broker, 3)
	members := make([]*experiments.ChaosMember, 3)
	for i := range members {
		brokers[i], members[i] = newHAMember(t, service)
	}

	// Member 0 doubles as the static -gateway seed (how cmd/frontend boots
	// before any lease arrives); 1 and 2 are discovered purely via leases.
	fe, err := frontend.NewDistributed("127.0.0.1:0",
		members[0].Addr,
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
		if err := m.Lease(lsn.Addr(), leaseTTL); err != nil {
			t.Fatal(err)
		}
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
		if m.Addr < victim.Addr {
			victim = m
		}
	}

	// Hard-crash it and keep premium traffic flowing for longer than the
	// lease TTL + reconcile interval: every request must fail over to the
	// survivors.
	victim.Crash()
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
			if strings.Contains(line, "addr="+victim.Addr) && strings.Contains(line, "state=expired") {
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
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	waitPoolz("crashed member live again", func(b string) bool {
		for _, line := range strings.Split(b, "\n") {
			if strings.Contains(line, "addr="+victim.Addr) &&
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
		for i, m := range members {
			m.Close()
			brokers[i].Close()
		}
		cli.Close()
		fe.Close()
		if err := testutil.CheckLeaks(3 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}
