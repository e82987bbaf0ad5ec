package servicebroker

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/metrics"
	"servicebroker/internal/obs"
	"servicebroker/internal/qos"
	"servicebroker/internal/sqldb"
	"servicebroker/internal/trace"
)

// httpGet fetches one admin endpoint over real TCP.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestObservabilityEndToEnd drives a request through the full chain — HTTP
// front end → UDP gateway → broker (cache, queue) → database backend — and
// then scrapes the obs admin plane, asserting that /metrics exposes
// Prometheus text for the live registries and that /tracez shows the request
// as one trace, with the ID the front end assigned, broken into at least
// three distinct stages.
func TestObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}

	// Backend: the SQL database server.
	engine := sqldb.NewEngine()
	if _, err := engine.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Exec("INSERT INTO kv VALUES (1, 'alpha'), (2, 'beta')"); err != nil {
		t.Fatal(err)
	}
	db, err := sqldb.NewServer(engine, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// One shared trace recorder for the whole assembly, aggregating stage
	// latencies into its own registry.
	traceReg := metrics.NewRegistry()
	rec := trace.NewRecorder(trace.WithMetrics(traceReg))

	// Broker with a result cache so the cache stage appears in traces.
	b, err := broker.New(&backend.SQLConnector{Addr: db.Addr().String()},
		broker.WithThreshold(16, 3),
		broker.WithWorkers(2),
		broker.WithCache(64, time.Minute),
		broker.WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gw, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{"db": b})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// Front end (distributed model) with tracing enabled: it assigns the
	// trace ID that the wire protocol carries to the broker.
	routes := []frontend.Route{{Pattern: "/db", Service: "db", DefaultClass: qos.Class2}}
	fe, err := frontend.NewDistributed("127.0.0.1:0", gw.Addr().String(), routes)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fe.EnableTracing(rec)

	// The admin plane, exactly as cmd/brokerd wires it.
	adminSrv := obs.New()
	adminSrv.SetRecorder(rec)
	adminSrv.MountRegistry("", traceReg)
	adminSrv.MountRegistry("broker.db.", b.Metrics())
	adminSrv.MountRegistry("frontend.", fe.Metrics())
	for page, render := range b.AdminPages("db") {
		adminSrv.AddRows(page, "db", render)
	}
	if err := adminSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer adminSrv.Close()
	base := "http://" + adminSrv.Addr().String()

	// Drive one uncached request (cache miss → queue → backend) and one
	// repeat (cache hit).
	cli := httpserver.NewClient(fe.Addr())
	defer cli.Close()
	query := map[string]string{"q": "SELECT v FROM kv WHERE k = 2", "qos": "2"}
	resp, err := cli.Get("/db", query)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "beta") {
		t.Fatalf("db resp = %d %q", resp.Status, resp.Body)
	}
	missTraceID := resp.Header["x-trace-id"]
	if missTraceID == "" {
		t.Fatal("front end did not attach x-trace-id")
	}
	resp, err = cli.Get("/db", query)
	if err != nil || resp.Status != 200 {
		t.Fatalf("repeat = %+v, %v", resp, err)
	}
	hitTraceID := resp.Header["x-trace-id"]
	if hitTraceID == "" || hitTraceID == missTraceID {
		t.Fatalf("repeat trace id = %q (first %q)", hitTraceID, missTraceID)
	}

	// /healthz.
	if body := httpGet(t, base+"/healthz"); body != "ok\n" {
		t.Fatalf("healthz = %q", body)
	}

	// /metrics: Prometheus text with at least one counter, one gauge, and
	// one histogram with bucket lines, under the canonical prefixed names.
	mBody := httpGet(t, base+"/metrics")
	for _, want := range []string{
		"# TYPE broker_db_requests counter",
		"# TYPE broker_db_outstanding gauge",
		"# TYPE broker_db_queue_wait histogram",
		`broker_db_queue_wait_bucket{le="+Inf"} 1`,
		"broker_db_queue_wait_count 1",
		"broker_db_cache_hits 1",
		"# TYPE trace_db_backend histogram",
		"# TYPE frontend_forwarded counter",
	} {
		if !strings.Contains(mBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(mBody, `broker_db_backend_rtt_bucket{le="`) {
		t.Error("/metrics has no finite backend_rtt bucket line")
	}
	if t.Failed() {
		t.Fatalf("metrics body:\n%s", mBody)
	}

	// /loadz reflects the live broker.
	if body := httpGet(t, base+"/loadz"); !strings.Contains(body, "service=db ") {
		t.Fatalf("loadz = %q", body)
	}

	// /tracez: the cache-miss request appears as one trace, carrying the
	// front-end-assigned ID, with at least three distinct stages (queue,
	// cache, backend).
	tBody := httpGet(t, base+"/tracez?service=db")
	stages := stagesOf(tBody, missTraceID)
	for _, want := range []string{"queue", "cache", "backend"} {
		if !stages[want] {
			t.Errorf("trace %s missing stage %q (got %v)", missTraceID, want, stages)
		}
	}
	if len(stages) < 3 {
		t.Errorf("trace %s has %d distinct stages, want >= 3", missTraceID, len(stages))
	}
	// The repeat request's trace records the cache hit.
	hitStages := stagesOf(tBody, hitTraceID)
	if !hitStages["cache"] {
		t.Errorf("cache-hit trace %s missing cache stage (got %v)", hitTraceID, hitStages)
	}
	if t.Failed() {
		t.Fatalf("tracez body:\n%s", tBody)
	}

	// Filtering: the class filter keeps these class-2 traces, class 1 drops
	// them.
	if body := httpGet(t, base+"/tracez?service=db&class=2"); !strings.Contains(body, missTraceID) {
		t.Errorf("class=2 filter lost trace %s:\n%s", missTraceID, body)
	}
	if body := httpGet(t, base+"/tracez?service=db&class=1"); strings.Contains(body, missTraceID) {
		t.Errorf("class=1 filter kept class-2 trace %s:\n%s", missTraceID, body)
	}
}

// stagesOf collects the distinct stage names recorded under every /tracez
// block whose header line carries the given trace ID. The front end and the
// broker each contribute one block per request (wire vs broker-side stages);
// both carry the same ID.
func stagesOf(tracez, traceID string) map[string]bool {
	stages := make(map[string]bool)
	in := false
	for _, line := range strings.Split(tracez, "\n") {
		if strings.HasPrefix(line, "trace ") {
			in = strings.HasPrefix(line, fmt.Sprintf("trace %s ", traceID))
			continue
		}
		if !in || !strings.HasPrefix(line, "  stage=") {
			continue
		}
		name := strings.TrimPrefix(line, "  stage=")
		if i := strings.IndexByte(name, ' '); i >= 0 {
			name = name[:i]
		}
		stages[name] = true
	}
	return stages
}
