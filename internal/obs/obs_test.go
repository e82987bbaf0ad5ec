package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/metrics"
	"servicebroker/internal/trace"
)

func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rw.Code)
	}
	return rw.Body.String()
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"broker.db.queue_wait": "broker_db_queue_wait",
		"frontend.requests":    "frontend_requests",
		"plain":                "plain",
		"7seconds":             "_7seconds",
		"a-b c":                "a_b_c",
		"ns:sub.metric":        "ns:sub_metric",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("requests").Add(7)
	reg.Gauge("queue_len").Set(3)
	h := reg.Histogram("queue_wait")
	h.Observe(50 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(3 * time.Millisecond)

	s := New()
	s.MountRegistry("broker.db.", reg)
	body := get(t, s.Handler(), "/metrics")

	for _, want := range []string{
		"# TYPE broker_db_requests counter",
		"broker_db_requests 7",
		"# TYPE broker_db_queue_len gauge",
		"broker_db_queue_len 3",
		"# TYPE broker_db_queue_wait histogram",
		`broker_db_queue_wait_bucket{le="+Inf"} 3`,
		"broker_db_queue_wait_count 3",
		"broker_db_queue_wait_sum ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// The bucket lines must be cumulative: the last finite bucket that
	// appears carries the full count.
	var lastBucket string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "broker_db_queue_wait_bucket{le=") &&
			!strings.Contains(line, "+Inf") {
			lastBucket = line
		}
	}
	if lastBucket == "" {
		t.Fatalf("/metrics has no finite bucket lines:\n%s", body)
	}
	if !strings.HasSuffix(lastBucket, " 3") {
		t.Errorf("last finite bucket not cumulative: %q", lastBucket)
	}
}

func TestMetricsMultipleMounts(t *testing.T) {
	a, b := metrics.NewRegistry(), metrics.NewRegistry()
	a.Counter("requests").Inc()
	b.Counter("requests").Add(2)

	s := New()
	s.MountRegistry("broker.db.", a)
	s.MountRegistry("frontend.", b)
	body := get(t, s.Handler(), "/metrics")
	if !strings.Contains(body, "broker_db_requests 1") {
		t.Errorf("missing prefixed broker counter:\n%s", body)
	}
	if !strings.Contains(body, "frontend_requests 2") {
		t.Errorf("missing prefixed frontend counter:\n%s", body)
	}
}

func TestTracezEndpoint(t *testing.T) {
	rec := trace.NewRecorder()
	for i, svc := range []string{"db", "db", "mail"} {
		tr := rec.Start(0, svc, i%2+1)
		span := tr.StartSpan(trace.StageQueue)
		span.End()
		tr.StartSpan(trace.StageBackend).EndNote("row fetch")
		if svc == "mail" {
			tr.SetStatus("dropped")
			tr.SetNote("threshold")
		}
		tr.Finish()
	}

	s := New()
	s.SetRecorder(rec)

	body := get(t, s.Handler(), "/tracez")
	if !strings.Contains(body, "3 traces") {
		t.Errorf("want 3 traces, got:\n%s", body)
	}
	if !strings.Contains(body, "stage=queue") || !strings.Contains(body, "stage=backend") {
		t.Errorf("missing stage lines:\n%s", body)
	}
	if !strings.Contains(body, `note="row fetch"`) {
		t.Errorf("missing span note:\n%s", body)
	}
	if !strings.Contains(body, `status=dropped`) || !strings.Contains(body, `note="threshold"`) {
		t.Errorf("missing dropped trace annotations:\n%s", body)
	}

	body = get(t, s.Handler(), "/tracez?service=mail")
	if !strings.Contains(body, "1 traces") || strings.Contains(body, "service=db") {
		t.Errorf("service filter failed:\n%s", body)
	}
	body = get(t, s.Handler(), "/tracez?service=db&class=1&n=1")
	if !strings.Contains(body, "1 traces") {
		t.Errorf("class+limit filter failed:\n%s", body)
	}
}

func TestTracezNoRecorder(t *testing.T) {
	body := get(t, New().Handler(), "/tracez")
	if !strings.Contains(body, "no trace recorder") {
		t.Errorf("want placeholder, got:\n%s", body)
	}
}

func TestHealthzAndPprof(t *testing.T) {
	s := New()
	if body := get(t, s.Handler(), "/healthz"); body != "ok\n" {
		t.Errorf("healthz = %q", body)
	}
	if body := get(t, s.Handler(), "/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline empty")
	}
}

func TestStartServesOverTCP(t *testing.T) {
	s := New()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Addr() == nil {
		t.Fatal("Addr nil after Start")
	}
	resp, err := http.Get("http://" + s.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "ok\n" {
		t.Errorf("healthz over TCP = %q", b)
	}
}

func TestMountView(t *testing.T) {
	s := New()
	calls := 0
	s.MountView("dyn.", func() metrics.View {
		calls++
		return metrics.View{
			Counters: map[string]int64{"lookups": int64(10 * calls)},
			Gauges:   map[string]int64{"live": 4},
		}
	})
	body := get(t, s.Handler(), "/metrics")
	if !strings.Contains(body, "dyn_lookups 10") || !strings.Contains(body, "dyn_live 4") {
		t.Fatalf("/metrics missing dynamic view:\n%s", body)
	}
	// The view is recomputed per scrape, not cached.
	body = get(t, s.Handler(), "/metrics")
	if !strings.Contains(body, "dyn_lookups 20") {
		t.Fatalf("/metrics served a stale dynamic view:\n%s", body)
	}
}
