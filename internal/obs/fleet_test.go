package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"servicebroker/internal/fleet"
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
