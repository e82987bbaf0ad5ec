package registry

import (
	"net"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/fleet"
	"servicebroker/internal/metrics"
	"servicebroker/internal/testutil"
)

func registerCmd(service, addr string, ttl time.Duration) Command {
	return Command{Verb: VerbRegister, Service: service, Addr: addr, TTL: ttl,
		Load: broker.LoadReport{Service: service, Outstanding: 1, Threshold: 16}}
}

func TestRegistryLifecycle(t *testing.T) {
	advance := testutil.FakeClock(t)
	m := metrics.NewRegistry()
	r := New(Config{Metrics: m})

	r.Apply(registerCmd("search", "127.0.0.1:7101", time.Second))
	r.Apply(registerCmd("search", "127.0.0.1:7102", time.Second))
	if got := len(r.Members("search")); got != 2 {
		t.Fatalf("after two registers: %d members, want 2", got)
	}
	if got := m.Gauge("broker_pool_size").Value(); got != 2 {
		t.Fatalf("broker_pool_size = %d, want 2", got)
	}

	// Renewal extends the lease past the original expiry.
	advance(800 * time.Millisecond)
	r.Apply(Command{Verb: VerbRenew, Service: "search", Addr: "127.0.0.1:7101", TTL: time.Second})
	advance(500 * time.Millisecond) // 7101 renewed 500ms ago; 7102 lapsed at 1s
	members := r.Members("search")
	if len(members) != 1 || members[0].Addr != "127.0.0.1:7101" {
		t.Fatalf("after partial expiry: members = %+v, want only 7101", members)
	}
	if members[0].Renewals != 1 {
		t.Fatalf("renewals = %d, want 1", members[0].Renewals)
	}

	// Reconcile emits the expiry transition for 7102.
	if n := r.Reconcile(); n != 1 {
		t.Fatalf("Reconcile expired %d leases, want 1", n)
	}
	if got := m.Counter("lease_expirations").Value(); got != 1 {
		t.Fatalf("lease_expirations = %d, want 1", got)
	}
	if got := m.Gauge("broker_pool_size").Value(); got != 1 {
		t.Fatalf("broker_pool_size after expiry = %d, want 1", got)
	}

	// The expired member shows as a tombstone on /poolz, then rejoins.
	var sawTombstone bool
	for _, v := range r.Snapshot() {
		if v.Addr == "127.0.0.1:7102" && v.State == "expired" {
			sawTombstone = true
		}
	}
	if !sawTombstone {
		t.Fatal("expired member missing from Snapshot")
	}
	r.Apply(registerCmd("search", "127.0.0.1:7102", time.Second))
	if got := m.Counter("lease_rejoins").Value(); got != 1 {
		t.Fatalf("lease_rejoins = %d, want 1", got)
	}
	if got := len(r.Members("search")); got != 2 {
		t.Fatalf("after rejoin: %d members, want 2", got)
	}

	// Deregister withdraws immediately.
	r.Apply(Command{Verb: VerbDeregister, Service: "search", Addr: "127.0.0.1:7101"})
	if got := len(r.Members("search")); got != 1 {
		t.Fatalf("after deregister: %d members, want 1", got)
	}
	if got := m.Counter("lease_deregistrations").Value(); got != 1 {
		t.Fatalf("lease_deregistrations = %d, want 1", got)
	}
}

func TestRegistryRenewAdmitsUnknownMember(t *testing.T) {
	// A front-end restart empties the table; the first RENEW from each
	// broker must rebuild the pool.
	testutil.FakeClock(t)
	r := New(Config{})
	r.Apply(Command{Verb: VerbRenew, Service: "search", Addr: "127.0.0.1:7101", TTL: time.Second})
	if got := len(r.Members("search")); got != 1 {
		t.Fatalf("RENEW of unknown member admitted %d members, want 1", got)
	}
}

func TestRegistryMembersFilterWithoutReconcile(t *testing.T) {
	// Lapsed leases must disappear from Members even if Reconcile never
	// runs: routing correctness cannot depend on loop granularity.
	advance := testutil.FakeClock(t)
	r := New(Config{})
	r.Apply(registerCmd("search", "127.0.0.1:7101", time.Second))
	advance(time.Second)
	if got := len(r.Members("search")); got != 0 {
		t.Fatalf("lapsed lease still visible: %d members, want 0", got)
	}
}

func TestRegistryLateRenewAfterLapseCountsExpiryAndRejoin(t *testing.T) {
	advance := testutil.FakeClock(t)
	m := metrics.NewRegistry()
	r := New(Config{Metrics: m})
	r.Apply(registerCmd("search", "127.0.0.1:7101", time.Second))
	advance(2 * time.Second)
	// The broker hung, never deregistered, and now renews: the lapse is an
	// expiry+rejoin even though Reconcile never saw it.
	r.Apply(Command{Verb: VerbRenew, Service: "search", Addr: "127.0.0.1:7101", TTL: time.Second})
	if got := m.Counter("lease_expirations").Value(); got != 1 {
		t.Fatalf("lease_expirations = %d, want 1", got)
	}
	if got := m.Counter("lease_rejoins").Value(); got != 1 {
		t.Fatalf("lease_rejoins = %d, want 1", got)
	}
	if got := len(r.Members("search")); got != 1 {
		t.Fatalf("members after late renew = %d, want 1", got)
	}
}

func TestRegistryPublishesLeaseEvents(t *testing.T) {
	advance := testutil.FakeClock(t)
	r := New(Config{})
	events := fleet.NewLog(16, nil)
	r.SetEvents(events)

	r.Apply(registerCmd("search", "127.0.0.1:7101", time.Second))
	advance(2 * time.Second)
	r.Reconcile()
	r.Apply(registerCmd("search", "127.0.0.1:7101", time.Second))
	r.Apply(Command{Verb: VerbDeregister, Service: "search", Addr: "127.0.0.1:7101"})

	// Snapshot is newest first.
	var kinds []fleet.Kind
	for _, e := range events.Snapshot(0) {
		kinds = append(kinds, e.Kind)
	}
	want := []fleet.Kind{fleet.KindLeaseLeave, fleet.KindLeaseRejoin, fleet.KindLeaseExpired, fleet.KindLeaseJoin}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
}

func TestRegistryTombstonesPruned(t *testing.T) {
	advance := testutil.FakeClock(t)
	r := New(Config{})
	r.Apply(registerCmd("search", "127.0.0.1:7101", time.Second))
	advance(2 * time.Second)
	r.Reconcile()
	if len(r.Snapshot()) != 1 {
		t.Fatal("tombstone missing right after expiry")
	}
	advance(2 * time.Minute)
	r.Reconcile()
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("tombstone survived past tombstoneFor: %+v", got)
	}
}

func TestRegistryBoundsTables(t *testing.T) {
	testutil.FakeClock(t)
	r := New(Config{})
	for i := 0; i < maxTrackedMembers+50; i++ {
		r.Apply(registerCmd("search", addrN(i), time.Minute))
	}
	if got := len(r.Members("search")); got != maxTrackedMembers {
		t.Fatalf("member table grew to %d, want cap %d", got, maxTrackedMembers)
	}
	for i := 0; i < maxTrackedServices+50; i++ {
		r.Apply(registerCmd(serviceN(i), "127.0.0.1:7101", time.Minute))
	}
	svcs := map[string]bool{}
	for _, v := range r.Snapshot() {
		svcs[v.Service] = true
	}
	if len(svcs) != maxTrackedServices {
		t.Fatalf("service table grew to %d, want cap %d", len(svcs), maxTrackedServices)
	}
}

// Service names arrive in datagrams, so a service that empties, by
// deregistration or by expiry, takes its broker_pool_size_<service> gauge
// with it; only live services keep one.
func TestRegistryForgetsGaugesOfEmptiedServices(t *testing.T) {
	advance := testutil.FakeClock(t)
	m := metrics.NewRegistry()
	r := New(Config{Metrics: m})
	const pairs = 5000
	for i := 0; i < pairs; i++ {
		r.Apply(registerCmd(serviceN(i), "127.0.0.1:7101", time.Minute))
		r.Apply(Command{Verb: VerbDeregister, Service: serviceN(i), Addr: "127.0.0.1:7101"})
	}
	for i := pairs; i < pairs+maxTrackedServices; i++ {
		r.Apply(registerCmd(serviceN(i), "127.0.0.1:7101", time.Second))
	}
	advance(2 * time.Second)
	r.Reconcile()
	r.Apply(registerCmd("live", "127.0.0.1:7101", time.Minute))
	r.Reconcile()
	gauges := 0
	for name := range m.View().Gauges {
		if strings.HasPrefix(name, "broker_pool_size_") {
			gauges++
		}
	}
	if gauges != 1 || m.Gauge("broker_pool_size_live").Value() != 1 {
		t.Fatalf("%d per-service gauges after %d emptied services, want only broker_pool_size_live = 1",
			gauges, pairs+maxTrackedServices)
	}
}

func addrN(i int) string {
	return net.JoinHostPort("10.0.0.1", itoa(10000+i))
}

func serviceN(i int) string { return "svc" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestRegistrarAgainstUDPListener(t *testing.T) {
	// A real Registrar against a real UDP socket: REGISTER arrives first,
	// RENEWs follow, DEREGISTER on Close.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	lines := make(chan string, 16)
	go func() {
		buf := make([]byte, 1024)
		for {
			n, _, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			lines <- string(buf[:n])
		}
	}()

	r, err := NewRegistrar(RegistrarConfig{
		Service:  "search",
		Addr:     "127.0.0.1:7101",
		Target:   pc.LocalAddr().String(),
		TTL:      90 * time.Millisecond,
		Interval: 30 * time.Millisecond,
		Load:     func() broker.LoadReport { return broker.LoadReport{Outstanding: 3, Threshold: 16} },
	})
	if err != nil {
		t.Fatal(err)
	}

	next := func() Command {
		t.Helper()
		select {
		case line := <-lines:
			cmd, err := ParseCommand(line)
			if err != nil {
				t.Fatalf("registrar sent unparseable %q: %v", line, err)
			}
			return cmd
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for registrar datagram")
			return Command{}
		}
	}

	first := next()
	if first.Verb != VerbRegister || first.Service != "search" || first.Addr != "127.0.0.1:7101" {
		t.Fatalf("first datagram = %+v, want REGISTER search 127.0.0.1:7101", first)
	}
	if first.Load.Outstanding != 3 {
		t.Fatalf("piggybacked load = %+v, want Outstanding 3", first.Load)
	}
	if renew := next(); renew.Verb != VerbRenew {
		t.Fatalf("second datagram = %+v, want RENEW", renew)
	}

	r.Close()
	r.Close() // idempotent
	deadline := time.After(2 * time.Second)
	for {
		select {
		case line := <-lines:
			cmd, err := ParseCommand(line)
			if err != nil {
				t.Fatalf("registrar sent unparseable %q: %v", line, err)
			}
			if cmd.Verb == VerbDeregister {
				return
			}
		case <-deadline:
			t.Fatal("no DEREGISTER after Close")
		}
	}
}

func TestRegistryStartReconciles(t *testing.T) {
	// Real-clock smoke for the reconciliation goroutine.
	m := metrics.NewRegistry()
	r := New(Config{Metrics: m}).Start(5 * time.Millisecond)
	defer r.Close()
	r.Apply(registerCmd("search", "127.0.0.1:7101", MinTTL))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if m.Counter("lease_expirations").Value() == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("reconciliation loop never expired the lease")
}
