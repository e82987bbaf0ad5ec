package registry

import (
	"math/rand"
	"testing"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/clock"
	"servicebroker/internal/testutil"
)

// leaseModel is the reference the registry is checked against: one deadline
// and one load per (service, addr), and the lease rules spelled out directly.
type leaseModel map[[2]string]mlease

type mlease struct {
	deadline time.Time
	load     broker.LoadReport
}

func (m leaseModel) apply(c Command, now time.Time) {
	k := [2]string{c.Service, c.Addr}
	if c.Verb == VerbDeregister {
		delete(m, k)
		return
	}
	m[k] = mlease{deadline: now.Add(c.TTL), load: c.Load} // REGISTER and RENEW alike
}

func (m leaseModel) live(service, addr string, now time.Time) bool {
	l, ok := m[[2]string{service, addr}]
	return ok && now.Before(l.deadline)
}

// reconcile forgets every lapsed lease and counts them.
func (m leaseModel) reconcile(now time.Time) (n int) {
	for k, l := range m {
		if !now.Before(l.deadline) {
			delete(m, k)
			n++
		}
	}
	return n
}

// TestRegistryAgainstModel drives seeded random schedules of REGISTER, RENEW,
// DEREGISTER, Reconcile and clock advances through the registry and the
// model side by side, comparing every observable after every step. No lease
// is live past its TTL after its last renew, whether or not Reconcile ran.
func TestRegistryAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		runLeaseSchedule(t, seed)
	}
}

func runLeaseSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	services := []string{"db", "dir", "mail"}[:2+rng.Intn(2)]
	addrs := []string{"10.0.0.1:7101", "10.0.0.2:7101", "10.0.0.3:7101", "10.0.0.4:7101"}[:3+rng.Intn(2)]
	advance := testutil.FakeClock(t)
	r := New(Config{})
	m := leaseModel{}

	// Durations are multiples of 10ms, so the clock often lands exactly on a
	// deadline: the boundary where a lease must already be gone.
	tick := func(n int) time.Duration { return time.Duration(n) * 10 * time.Millisecond }
	steps := 100 + rng.Intn(100)
	for step := 0; step < steps; step++ {
		now := clock.Now()
		service, addr := services[rng.Intn(len(services))], addrs[rng.Intn(len(addrs))]
		switch op := rng.Intn(100); {
		case op < 55:
			c := Command{Verb: VerbRegister, Service: service, Addr: addr,
				TTL:  MinTTL + tick(rng.Intn(20)),
				Load: broker.LoadReport{Service: service, Outstanding: rng.Intn(20), Threshold: 20, Hot: rng.Intn(4) == 0}}
			if op < 25 {
				c.Verb = VerbRenew
			}
			r.Apply(c)
			m.apply(c, now)
		case op < 65:
			c := Command{Verb: VerbDeregister, Service: service, Addr: addr}
			r.Apply(c)
			m.apply(c, now)
		case op < 75:
			if got, want := r.Reconcile(), m.reconcile(now); got != want {
				fail(step, "Reconcile expired %d leases, model %d", got, want)
			}
		default:
			advance(tick(rng.Intn(16)))
			now = clock.Now()
		}

		for _, s := range services {
			var want []string
			for _, a := range addrs {
				if m.live(s, a, now) {
					want = append(want, a)
				}
			}
			got := r.Members(s)
			if len(got) != len(want) {
				fail(step, "Members(%s) = %d members, model %v", s, len(got), want)
			}
			for i, mem := range got {
				l := m[[2]string{s, mem.Addr}]
				if mem.Addr != want[i] || mem.Load != l.load || !mem.Expires.Equal(l.deadline) {
					fail(step, "Members(%s)[%d] = %s load %+v expires %v, model %s load %+v expires %v",
						s, i, mem.Addr, mem.Load, mem.Expires, want[i], l.load, l.deadline)
				}
			}
		}
		liveRows, liveLeases := 0, 0
		for _, row := range r.Snapshot() {
			live := row.State == "live"
			if live != m.live(row.Service, row.Addr, now) {
				fail(step, "Snapshot row %s %s is %s, model live=%v", row.Service, row.Addr, row.State, !live)
			}
			if live {
				liveRows++
			}
		}
		for k := range m {
			if m.live(k[0], k[1], now) {
				liveLeases++
			}
		}
		if liveRows != liveLeases {
			fail(step, "Snapshot has %d live rows, model %d live leases", liveRows, liveLeases)
		}
	}
}
