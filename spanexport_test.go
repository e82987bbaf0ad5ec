package servicebroker

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/metrics"
	"servicebroker/internal/obs"
	"servicebroker/internal/qos"
	"servicebroker/internal/resilience"
	"servicebroker/internal/sqldb"
	"servicebroker/internal/trace"
)

// newDBBackend starts a small SQL backend for integration tests.
func newDBBackend(t *testing.T) *sqldb.Server {
	t.Helper()
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
	t.Cleanup(func() { db.Close() })
	return db
}

// TestSpanExportAcrossProcesses deploys the two-process topology for real:
// the front end and the broker each own a private trace recorder (unlike
// TestObservabilityEndToEnd's shared one), connected only by the UDP wire
// protocol. The broker's spans must travel back inside the response frame
// and appear merged into the front end's /tracez under a single entry.
func TestSpanExportAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	db := newDBBackend(t)

	// Broker process side: its own recorder with an export buffer, exactly
	// as cmd/brokerd builds it.
	brokerReg := metrics.NewRegistry()
	brokerRec := trace.NewRecorder(trace.WithMetrics(brokerReg), trace.WithExport(64))
	b, err := broker.New(&backend.SQLConnector{Addr: db.Addr().String()},
		broker.WithThreshold(16, 3),
		broker.WithWorkers(2),
		broker.WithCache(64, time.Minute),
		broker.WithTracer(brokerRec))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gw, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{"db": b})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// Front-end process side: a separate recorder; the only way broker
	// stages can reach it is span export over the wire.
	feRec := trace.NewRecorder()
	routes := []frontend.Route{{Pattern: "/db", Service: "db", DefaultClass: qos.Class2}}
	fe, err := frontend.NewDistributed("127.0.0.1:0", gw.Addr().String(), routes)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fe.EnableTracing(feRec)

	adminSrv := obs.New()
	adminSrv.SetRecorder(feRec)
	if err := adminSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer adminSrv.Close()

	cli := httpserver.NewClient(fe.Addr())
	defer cli.Close()
	resp, err := cli.Get("/db", map[string]string{"q": "SELECT v FROM kv WHERE k = 2", "qos": "2"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "beta") {
		t.Fatalf("db resp = %d %q", resp.Status, resp.Body)
	}
	traceID := resp.Header["x-trace-id"]
	if traceID == "" {
		t.Fatal("front end did not attach x-trace-id")
	}

	tBody := httpGet(t, "http://"+adminSrv.Addr().String()+"/tracez?service=db")

	// Exactly one entry: the remote spans merge into the front end's trace
	// rather than appearing as a second block.
	if n := strings.Count(tBody, "trace "+traceID+" "); n != 1 {
		t.Fatalf("trace %s appears in %d blocks, want 1:\n%s", traceID, n, tBody)
	}
	stages := stagesOf(tBody, traceID)
	for _, want := range []string{"wire", "queue", "backend"} {
		if !stages[want] {
			t.Errorf("merged trace %s missing stage %q (got %v)", traceID, want, stages)
		}
	}
	if t.Failed() {
		t.Fatalf("tracez body:\n%s", tBody)
	}

	// The broker kept its own copy of the trace under the same wire ID.
	found := false
	for _, tr := range brokerRec.Snapshot(trace.Filter{Service: "db"}) {
		if fmt.Sprintf("%016x", uint64(tr.ID)) == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("broker-side recorder lost trace %s", traceID)
	}
}

// TestAdminPlaneClassMetrics drives traffic in two QoS classes through the
// full chain and checks /metrics for each class's queue-wait histogram and
// refusal counters, the per-stage trace histograms, and /buildz.
func TestAdminPlaneClassMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	db := newDBBackend(t)

	traceReg := metrics.NewRegistry()
	rec := trace.NewRecorder(trace.WithMetrics(traceReg))
	b, err := broker.New(&backend.SQLConnector{Addr: db.Addr().String()},
		broker.WithThreshold(16, 3),
		broker.WithWorkers(2),
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
	fe, err := frontend.NewDistributed("127.0.0.1:0", gw.Addr().String(),
		[]frontend.Route{{Pattern: "/db", Service: "db", DefaultClass: qos.Class1}})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fe.EnableTracing(rec)

	// Mounted as cmd/brokerd does.
	adminSrv := obs.New()
	adminSrv.MountRegistry("", traceReg)
	adminSrv.MountRegistry("broker.db.", b.Metrics())
	adminSrv.MountView("broker.db.", b.ScrapeView)
	if err := adminSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer adminSrv.Close()
	base := "http://" + adminSrv.Addr().String()

	cli := httpserver.NewClient(fe.Addr())
	defer cli.Close()
	for i := 0; i < 6; i++ {
		class := 1 + i%2
		q := map[string]string{"q": "SELECT v FROM kv WHERE k = 1", "qos": fmt.Sprint(class)}
		if resp, err := cli.Get("/db", q); err != nil || resp.Status != 200 {
			t.Fatalf("request %d: %+v, %v", i, resp, err)
		}
	}

	// /metrics: three requests in each class, every one queued and none
	// refused, and the broker's backend stage in the trace histograms.
	samples := make(map[string]string)
	for _, line := range strings.Split(httpGet(t, base+"/metrics"), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[name] = v
		}
	}
	for class := 1; class <= 2; class++ {
		for name, want := range map[string]string{
			"requests_class_%d":         "3",
			"queue_wait_class_%d_count": "3",
			"dropped_class_%d":          "0",
			"shed_class_%d":             "0",
		} {
			name = "broker_db_" + fmt.Sprintf(name, class)
			if got := samples[name]; got != want {
				t.Errorf("/metrics %s = %q, want %q", name, got, want)
			}
		}
	}
	if got := samples["trace_db_backend_count"]; got == "" || got == "0" {
		t.Errorf("/metrics trace_db_backend_count = %q, want a count of backend spans", got)
	}

	// /buildz reports process identity.
	bBody := httpGet(t, base+"/buildz")
	for _, want := range []string{"go=", "goroutines=", "uptime=", "start="} {
		if !strings.Contains(bBody, want) {
			t.Errorf("/buildz missing %q:\n%s", want, bBody)
		}
	}
}

// TestConcurrentAdminScrapes hammers /loadz, /breakerz, and /metrics while
// the broker is mutating the state behind them; run under -race this guards
// the admin plane's locking.
func TestConcurrentAdminScrapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	b, err := broker.New(&backend.DelayConnector{ServiceName: "db", ConnectTime: 0},
		broker.WithThreshold(32, 3),
		broker.WithWorkers(4),
		broker.WithResilience(resilience.Config{
			Retry:   resilience.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond},
			Breaker: resilience.BreakerConfig{FailureThreshold: 3, Cooldown: 10 * time.Millisecond},
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	adminSrv := obs.New()
	adminSrv.MountRegistry("broker.db.", b.Metrics())
	for page, render := range b.AdminPages("db") {
		adminSrv.AddRows(page, "db", render)
	}
	if err := adminSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer adminSrv.Close()
	base := "http://" + adminSrv.Addr().String()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				class := qos.Class(1 + (g+i)%3)
				resp := b.Handle(context.Background(), &broker.Request{
					Payload: []byte(fmt.Sprintf("q-%d-%d", g, i)),
					Class:   class,
					NoCache: true,
				})
				if resp.Err != nil && resp.Status != broker.StatusDropped {
					t.Errorf("handle: %v", resp.Err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{"/loadz", "/breakerz", "/metrics"}
			for i := 0; i < 30; i++ {
				body := httpGet(t, base+paths[(g+i)%len(paths)])
				if body == "" {
					t.Error("empty admin response")
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if body := httpGet(t, base+"/loadz"); !strings.Contains(body, "service=db ") {
		t.Fatalf("loadz after load = %q", body)
	}
}
