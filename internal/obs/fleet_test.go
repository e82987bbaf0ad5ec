package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/fleet"
	"servicebroker/internal/metrics"
	"servicebroker/internal/registry"
)

func TestEventzEndpoint(t *testing.T) {
	s := New()
	if code, _ := fetch(t, s, "/eventz"); code != 404 {
		t.Fatalf("GET /eventz without a log = %d, want 404", code)
	}

	l := fleet.NewLog(8, nil)
	s.SetEventLog(l)
	l.Publish(fleet.Event{Kind: fleet.KindLeaseExpired, Service: "db", Member: "127.0.0.1:7101",
		Detail: "lease lapsed without renewal"})
	l.Publish(fleet.Event{Kind: fleet.KindBreakerOpen, Service: "db", Member: "127.0.0.1:7101",
		Detail: "dial refused", TraceID: 0xabc})

	body := get(t, s.Handler(), "/eventz")
	for _, want := range []string{
		"2 events (newest first)\n",
		"kind=lease_expired service=db member=127.0.0.1:7101 detail=\"lease lapsed without renewal\"",
		"kind=breaker_open",
		"trace=0000000000000abc", // hex form matching /tracez
		"ring: held=2 dropped=0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/eventz missing %q in:\n%s", want, body)
		}
	}
	// Newest first: the breaker event precedes the lease expiry.
	if strings.Index(body, "breaker_open") > strings.Index(body, "lease_expired") {
		t.Errorf("/eventz not newest first:\n%s", body)
	}

	// ?n= bounds the page.
	limited := get(t, s.Handler(), "/eventz?n=1")
	if !strings.Contains(limited, "1 events") || strings.Contains(limited, "lease_expired") {
		t.Errorf("/eventz?n=1 did not limit to the newest event:\n%s", limited)
	}
}

// fleetTestMember serves a minimal admin plane for the federator to scrape.
func fleetTestMember(t *testing.T, exposition string) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(exposition))
	})
	mux.HandleFunc("/buildz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("test build\n"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestFleetzEndpoint(t *testing.T) {
	s := New()
	if code, _ := fetch(t, s, "/fleetz"); code != 404 {
		t.Fatalf("GET /fleetz without a federator = %d, want 404", code)
	}

	admin := fleetTestMember(t, "# TYPE requests counter\nrequests 3\n")
	fed := fleet.NewFederator(fleet.FederatorConfig{
		Discover: func() []fleet.MemberInfo {
			return []fleet.MemberInfo{{Name: "127.0.0.1:7101", AdminAddr: admin}}
		},
	})
	defer fed.Close()
	fed.ScrapeOnce(t.Context())
	s.SetFederator(fed)
	s.AddRows("/poolz", "frontend", func(w io.Writer, _ int) {
		registry.WritePool(w, "frontend", []registry.PoolView{{Service: "db", Addr: "127.0.0.1:7101", Source: "lease",
			State: "live", TTLRemaining: 2 * time.Second, Outstanding: 1, Threshold: 16}})
	})

	body := get(t, s.Handler(), "/fleetz")
	for _, want := range []string{
		"fleet: 1 members\n",
		"member=127.0.0.1:7101 admin=" + admin + " state=live series=1",
		"build=\"test build\"",
		// The lease context is the /poolz rows, verbatim.
		"\npool=frontend service=db addr=127.0.0.1:7101 source=lease state=live ttl=2s renewals=0 outstanding=1/16 queue=0 cool failures=0 failovers=0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/fleetz missing %q in:\n%s", want, body)
		}
	}
}

func TestHealthzDraining(t *testing.T) {
	s := New()
	if code, body := fetch(t, s, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	s.SetDraining(true)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", rw.Code)
	}
	if rw.Header().Get("Retry-After") == "" {
		t.Fatal("draining /healthz missing Retry-After")
	}
	if !strings.Contains(rw.Body.String(), "draining") {
		t.Fatalf("draining /healthz body = %q", rw.Body.String())
	}

	s.SetDraining(false)
	if code, body := fetch(t, s, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz after drain cleared = %d %q, want 200 ok", code, body)
	}
}

// The merged /metrics document must stay valid exposition: one TYPE line per
// family even when a federated family collides with a local one, every
// federated sample labeled, and fleet rollups summing the members.
func TestMetricsFederatedNoDuplicateSeries(t *testing.T) {
	local := metrics.NewRegistry()
	local.Counter("requests").Add(2)

	a := fleetTestMember(t, "# TYPE frontend_requests counter\nfrontend_requests 10\n")
	b := fleetTestMember(t, "# TYPE frontend_requests counter\nfrontend_requests 32\n")
	fed := fleet.NewFederator(fleet.FederatorConfig{
		Discover: func() []fleet.MemberInfo {
			return []fleet.MemberInfo{
				{Name: "b1", AdminAddr: a},
				{Name: "b2", AdminAddr: b},
			}
		},
	})
	defer fed.Close()
	fed.ScrapeOnce(t.Context())

	s := New()
	s.MountRegistry("frontend.", local) // local frontend_requests collides with the federated family
	s.SetFederator(fed)

	body := get(t, s.Handler(), "/metrics")
	for _, want := range []string{
		"frontend_requests 2\n", // local, unlabeled
		`frontend_requests{broker="b1"} 10`,
		`frontend_requests{broker="b2"} 32`,
		`frontend_requests{broker="fleet"} 42`,
		`fleet_member_up{broker="b1"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE frontend_requests "); n != 1 {
		t.Errorf("frontend_requests typed %d times, want 1:\n%s", n, body)
	}
	// No duplicate series: every line (name + label set) appears once.
	lines := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			series = line[:i]
		}
		lines[series]++
	}
	for series, n := range lines {
		if n > 1 {
			t.Errorf("series %q appears %d times", series, n)
		}
	}
}
