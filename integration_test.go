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
	"servicebroker/internal/cluster"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/ldapdir"
	"servicebroker/internal/mailsvc"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/sqldb"
)

// TestFullStackAllBackends drives the complete chain — HTTP front end →
// UDP gateway → per-service brokers → four heterogeneous backend servers —
// exactly as Figure 2 draws it.
func TestFullStackAllBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}

	// Backends: database, directory, mail, and a remote web provider.
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

	dir := ldapdir.NewDirectory()
	root, _ := ldapdir.ParseDN("dc=example")
	if err := dir.Add(root, map[string][]string{"objectclass": {"domain"}}); err != nil {
		t.Fatal(err)
	}
	dirSrv, err := ldapdir.NewServer(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dirSrv.Close()

	mailSrv, err := mailsvc.NewServer(mailsvc.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mailSrv.Close()

	webSrv, err := httpserver.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer webSrv.Close()
	webSrv.Handle("/feed", func(req *httpserver.Request) *httpserver.Response {
		return httpserver.Text("today's headlines")
	})

	// One broker per service, one gateway for all of them.
	brokers := map[string]*broker.Broker{}
	for name, conn := range map[string]backend.Connector{
		"db":   &backend.SQLConnector{Addr: db.Addr().String()},
		"dir":  &backend.DirConnector{Addr: dirSrv.Addr().String()},
		"mail": &backend.MailConnector{Addr: mailSrv.Addr().String()},
		"news": &backend.WebConnector{Addr: webSrv.Addr().String(), ServiceName: "news"},
	} {
		b, err := broker.New(conn, broker.WithThreshold(16, 3), broker.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		brokers[name] = b
	}
	gw, err := broker.NewGateway("127.0.0.1:0", brokers)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// The front-end web server (distributed model) with one route per
	// service.
	routes := []frontend.Route{
		{Pattern: "/db", Service: "db", DefaultClass: qos.Class2},
		{Pattern: "/dir", Service: "dir", DefaultClass: qos.Class2},
		{Pattern: "/mail", Service: "mail", DefaultClass: qos.Class2},
		{Pattern: "/news", Service: "news", DefaultClass: qos.Class3},
	}
	fe, err := frontend.NewDistributed("127.0.0.1:0", gw.Addr().String(), routes)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	cli := httpserver.NewClient(fe.Addr(), httpserver.WithPersistent(2))
	defer cli.Close()

	// Database access through the whole chain.
	resp, err := cli.Get("/db", map[string]string{"q": "SELECT v FROM kv WHERE k = 2", "qos": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "beta") {
		t.Fatalf("db resp = %d %q", resp.Status, resp.Body)
	}

	// Directory: add then search.
	resp, err = cli.Get("/dir", map[string]string{
		"q": "ADD cn=zoe,dc=example objectclass=person|mail=zoe@example.com", "qos": "1"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("dir add = %+v, %v", resp, err)
	}
	resp, err = cli.Get("/dir", map[string]string{"q": "SEARCH dc=example sub (cn=zoe)", "qos": "1"})
	if err != nil || !strings.Contains(string(resp.Body), "zoe@example.com") {
		t.Fatalf("dir search = %q, %v", resp.Body, err)
	}

	// Mail: send then list.
	resp, err = cli.Get("/mail", map[string]string{"q": "SEND a@x.com b@x.com hello from the stack", "qos": "1"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("mail send = %+v, %v", resp, err)
	}
	resp, err = cli.Get("/mail", map[string]string{"q": "LIST b@x.com", "qos": "1"})
	if err != nil || !strings.Contains(string(resp.Body), "a@x.com") {
		t.Fatalf("mail list = %q, %v", resp.Body, err)
	}

	// Loosely coupled web provider.
	resp, err = cli.Get("/news", map[string]string{"q": "/feed", "qos": "1"})
	if err != nil || string(resp.Body) != "today's headlines" {
		t.Fatalf("news = %q, %v", resp.Body, err)
	}
}

// TestBackendRestartRecovery kills the database server mid-run and
// restarts it on the same address; the broker's session pool must discard
// broken sessions and recover without intervention.
func TestBackendRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	engine := sqldb.NewEngine()
	if _, err := engine.Exec("CREATE TABLE t (n INT)"); err != nil {
		t.Fatal(err)
	}
	db, err := sqldb.NewServer(engine, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := db.Addr().String()

	b, err := broker.New(&backend.SQLConnector{Addr: addr},
		broker.WithThreshold(8, 1), broker.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx := context.Background()
	req := &broker.Request{Payload: []byte("SELECT COUNT(*) FROM t"), Class: qos.Class1, NoCache: true}
	if resp := b.Handle(ctx, req); resp.Status != broker.StatusOK {
		t.Fatalf("pre-restart resp = %+v", resp)
	}

	// Kill the backend. In-flight pooled sessions are now broken.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	sawError := false
	for i := 0; i < 3; i++ {
		if resp := b.Handle(ctx, req); resp.Status == broker.StatusError {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("no error surfaced while the backend was down")
	}

	// Restart on the same address (retry briefly: the port may linger).
	var db2 *sqldb.Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		db2, err = sqldb.NewServer(engine, addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer db2.Close()

	// The broker recovers: broken sessions were closed, new dials succeed.
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp := b.Handle(ctx, req)
		if resp.Status == broker.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("broker never recovered: %+v", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCentralizedEndToEndOverload drives the centralized model through a
// real overload: the broker's lease renewals feed the listener thread, and
// the web server starts aborting requests up front, then recovers.
func TestCentralizedEndToEndOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	conn := &backend.DelayConnector{ServiceName: "db", ProcessTime: 20 * time.Millisecond, MaxConcurrent: 2}
	b, err := broker.New(conn, broker.WithThreshold(4, 1), broker.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gw, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{"db": b})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	routes := []frontend.Route{{Pattern: "/db", Service: "db", DefaultClass: qos.Class1}}
	profiles := map[string][]frontend.Demand{"/db": {{Service: "db", Weight: 1}}}
	fe, err := frontend.NewCentralized("127.0.0.1:0", gw.Addr().String(), "127.0.0.1:0", routes, profiles)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	lease, err := registry.NewRegistrar(registry.RegistrarConfig{
		Service: "db", Addr: gw.Addr().String(), Target: fe.ListenerAddr(),
		Interval: 3 * time.Millisecond, Load: b.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Close()

	// Saturate the broker with direct holds.
	var hold sync.WaitGroup
	stop := make(chan struct{})
	hold.Add(1)
	go func() {
		defer hold.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			hold.Add(1)
			go func(i int) {
				defer hold.Done()
				b.Handle(context.Background(), &broker.Request{
					Payload: []byte(fmt.Sprintf("hold%d", i)), Class: qos.Class1, NoCache: true,
				})
			}(i)
			time.Sleep(time.Millisecond)
		}
	}()

	// The web server must start answering 503 once a renewal shows overload.
	cli := httpserver.NewClient(fe.Addr())
	defer cli.Close()
	saw503 := false
	deadline := time.Now().Add(5 * time.Second)
	for !saw503 && time.Now().Before(deadline) {
		resp, err := cli.Get("/db", map[string]string{"q": "probe"})
		if err == nil && resp.Status == 503 {
			saw503 = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	hold.Wait()
	if !saw503 {
		t.Fatal("centralized front end never aborted during overload")
	}

	// After the load drains and a fresh renewal lands, requests pass again.
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := cli.Get("/db", map[string]string{"q": "recovered"})
		if err == nil && resp.Status == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front end never recovered (err=%v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fe.ListenerUpdates() == 0 {
		t.Fatal("listener thread applied no leases")
	}
}

// TestClusteredDatabaseEndToEnd exercises clustering through the real
// database wire protocol: identical queries from many clients coalesce into
// repeat-directive accesses.
func TestClusteredDatabaseEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	engine := sqldb.NewEngine()
	if err := sqldb.LoadRecords(engine, 1000); err != nil {
		t.Fatal(err)
	}
	db, err := sqldb.NewServer(engine, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	b, err := broker.New(&backend.SQLConnector{Addr: db.Addr().String()},
		broker.WithThreshold(64, 1),
		broker.WithWorkers(16),
		broker.WithClustering(cluster.RepeatCombiner{}, 8, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 24
	query := "SELECT COUNT(*) FROM records WHERE category = 7"
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := b.Handle(context.Background(), &broker.Request{
				Payload: []byte(query), Class: qos.Class1, NoCache: true,
			})
			if resp.Status != broker.StatusOK {
				t.Errorf("resp = %+v", resp)
				return
			}
			if !strings.Contains(string(resp.Payload), "count") {
				t.Errorf("payload = %q", resp.Payload)
			}
		}()
	}
	wg.Wait()

	// The server saw fewer wire queries than client requests... except the
	// repeat directive re-runs the query server-side; what must shrink is
	// the number of broker→backend accesses, visible as batches > 0 and
	// clustered_requests == n.
	if got := b.Metrics().Counter("clustered_requests").Value(); got != n {
		t.Fatalf("clustered_requests = %d, want %d", got, n)
	}
	batches := b.Metrics().Counter("batches").Value()
	if batches == 0 || batches >= n {
		t.Fatalf("batches = %d, want within (0, %d)", batches, n)
	}
}
