package backend

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/httpserver"
	"servicebroker/internal/ldapdir"
	"servicebroker/internal/mailsvc"
	"servicebroker/internal/sqldb"
)

func TestDelayConnectorBoundedTime(t *testing.T) {
	d := &DelayConnector{ServiceName: "cgi1", ProcessTime: 20 * time.Millisecond}
	s, err := d.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	out, err := s.Do(context.Background(), []byte("req"))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("Do took %v, want ≥ 20ms", elapsed)
	}
	if string(out) != "done:req" {
		t.Fatalf("out = %q", out)
	}
	if d.Name() != "cgi1" {
		t.Fatalf("name = %q", d.Name())
	}
}

func TestDelayConnectorMaxConcurrent(t *testing.T) {
	d := &DelayConnector{ServiceName: "cgi", ProcessTime: 30 * time.Millisecond, MaxConcurrent: 1}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := d.Connect(context.Background())
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			defer s.Close()
			if _, err := s.Do(context.Background(), []byte("x")); err != nil {
				t.Errorf("do: %v", err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("3 requests on 1 slot took %v, want ≥ 90ms", elapsed)
	}
}

func TestDelayConnectorContextCancel(t *testing.T) {
	d := &DelayConnector{ServiceName: "cgi", ProcessTime: 10 * time.Second}
	s, err := d.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Do(ctx, []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestDelayConnectorClosedSession(t *testing.T) {
	d := &DelayConnector{ServiceName: "cgi"}
	s, _ := d.Connect(context.Background())
	s.Close()
	if _, err := s.Do(context.Background(), nil); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("err = %v, want ErrServiceClosed", err)
	}
}

func TestFuncConnector(t *testing.T) {
	fc := &FuncConnector{
		ServiceName: "fn",
		DoFn: func(_ context.Context, payload []byte) ([]byte, error) {
			return append([]byte("fn:"), payload...), nil
		},
	}
	s, err := fc.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Do(context.Background(), []byte("p"))
	if err != nil || string(out) != "fn:p" {
		t.Fatalf("out = %q, %v", out, err)
	}
}

func TestFuncConnectorValidation(t *testing.T) {
	fc := &FuncConnector{ServiceName: "fn"}
	if _, err := fc.Connect(context.Background()); err == nil {
		t.Fatal("nil DoFn accepted")
	}
	failing := &FuncConnector{
		ServiceName: "fn",
		ConnectFn:   func(context.Context) error { return errors.New("down") },
		DoFn:        func(context.Context, []byte) ([]byte, error) { return nil, nil },
	}
	if _, err := failing.Connect(context.Background()); err == nil {
		t.Fatal("failing ConnectFn ignored")
	}
}

func TestPoolReusesSessions(t *testing.T) {
	d := &DelayConnector{ServiceName: "cgi"}
	p, err := NewPool(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 10; i++ {
		if _, err := p.Do(context.Background(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Dials(); got != 1 {
		t.Fatalf("dials = %d, want 1 (persistent reuse)", got)
	}
	if got := p.IdleCount(); got != 1 {
		t.Fatalf("idle = %d, want 1", got)
	}
}

func TestPoolConcurrentBorrowers(t *testing.T) {
	d := &DelayConnector{ServiceName: "cgi", ProcessTime: 5 * time.Millisecond}
	p, err := NewPool(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Do(context.Background(), []byte("y")); err != nil {
				t.Errorf("do: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := p.IdleCount(); got > 4 {
		t.Fatalf("idle = %d exceeds capacity 4", got)
	}
}

func TestPoolClosesBrokenSessions(t *testing.T) {
	calls := 0
	fc := &FuncConnector{
		ServiceName: "flaky",
		DoFn: func(context.Context, []byte) ([]byte, error) {
			calls++
			if calls == 1 {
				return nil, errors.New("broken pipe")
			}
			return []byte("ok"), nil
		},
	}
	p, err := NewPool(fc, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Do(context.Background(), nil); err == nil {
		t.Fatal("first do should fail")
	}
	if p.IdleCount() != 0 {
		t.Fatal("broken session returned to pool")
	}
	if out, err := p.Do(context.Background(), nil); err != nil || string(out) != "ok" {
		t.Fatalf("second do = %q, %v", out, err)
	}
	if p.Dials() != 2 {
		t.Fatalf("dials = %d, want 2", p.Dials())
	}
}

func TestPoolClosed(t *testing.T) {
	p, err := NewPool(&DelayConnector{ServiceName: "x"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Get(context.Background()); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("err = %v, want ErrServiceClosed", err)
	}
	p.Close() // idempotent
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, 1); err == nil {
		t.Fatal("nil connector accepted")
	}
	if _, err := NewPool(&DelayConnector{}, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestSQLConnectorEndToEnd(t *testing.T) {
	engine := sqldb.NewEngine()
	if err := sqldb.LoadRecords(engine, 500); err != nil {
		t.Fatal(err)
	}
	srv, err := sqldb.NewServer(engine, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &SQLConnector{Addr: srv.Addr().String()}
	if c.Name() != "db" {
		t.Fatalf("name = %q", c.Name())
	}
	s, err := c.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Do(context.Background(), []byte("SELECT COUNT(*) FROM records"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "500") {
		t.Fatalf("out = %q", out)
	}
}

func TestSQLSessionHonorsRepeatDirective(t *testing.T) {
	engine := sqldb.NewEngine()
	if _, err := engine.Exec("CREATE TABLE t (n INT)"); err != nil {
		t.Fatal(err)
	}
	srv, err := sqldb.NewServer(engine, "127.0.0.1:0", sqldb.WithQueryDelay(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &SQLConnector{Addr: srv.Addr().String()}
	s, err := c.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	start := time.Now()
	if _, err := s.Do(context.Background(), []byte(sqldb.RepeatQuery("SELECT COUNT(*) FROM t", 4))); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("repeated query took %v, want ≥ 40ms (4 × 10ms)", elapsed)
	}
}

// TestSQLSessionAllocs is the alloc-regression gate for the broker's database
// access (matched by CI's -run 'Alloc' step): sqlSession.Do against a
// loopback sqldb.Server, client and server together (measured 20 and 29). The
// session adds three allocations to the engine's: the payload as a string, the
// query text on the server, and the rendered table the broker keeps; a fourth
// is the test's own payload. The range read is the benchmark's shape, 15 rows.
func TestSQLSessionAllocs(t *testing.T) {
	engine := sqldb.NewEngine()
	if err := sqldb.LoadRecords(engine, sqldb.PaperRecordCount); err != nil {
		t.Fatal(err)
	}
	srv, err := sqldb.NewServer(engine, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s, err := (&SQLConnector{Addr: srv.Addr().String()}).Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		sql, first string // first: the table's first row
		rows       int
		budget     float64
	}{
		{"SELECT id, name FROM records WHERE id = 12345", "12345\trecord-012345", 1, 30},
		{"SELECT id, name, score FROM records WHERE category = 62 AND score BETWEEN 389 AND 427", "", 15, 40},
	} {
		out, err := s.Do(context.Background(), []byte(tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
		if len(lines) != 1+tc.rows || (tc.first != "" && lines[1] != tc.first) {
			t.Fatalf("%s = %q, want %d rows", tc.sql, out, tc.rows)
		}
		n := testing.AllocsPerRun(200, func() {
			if _, err := s.Do(context.Background(), []byte(tc.sql)); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.budget {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", tc.sql, n, tc.budget)
		}
	}
}

func TestDirConnectorEndToEnd(t *testing.T) {
	dir := ldapdir.NewDirectory()
	root, _ := ldapdir.ParseDN("dc=example")
	if err := dir.Add(root, map[string][]string{"objectclass": {"domain"}}); err != nil {
		t.Fatal(err)
	}
	users, _ := ldapdir.ParseDN("ou=users,dc=example")
	if err := dir.Add(users, nil); err != nil {
		t.Fatal(err)
	}
	srv, err := ldapdir.NewServer(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &DirConnector{Addr: srv.Addr().String()}
	s, err := c.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Do(context.Background(), []byte("ADD cn=alice,ou=users,dc=example objectclass=person|mail=a@x.com")); err != nil {
		t.Fatal(err)
	}
	out, err := s.Do(context.Background(), []byte("SEARCH dc=example sub (objectclass=person)"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "dn: cn=alice,ou=users,dc=example") || !strings.Contains(string(out), "mail: a@x.com") {
		t.Fatalf("out = %q", out)
	}
	if _, err := s.Do(context.Background(), []byte("MODIFY cn=alice,ou=users,dc=example title=eng")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(context.Background(), []byte("DEL cn=alice,ou=users,dc=example")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(context.Background(), []byte("FROB x")); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestMailConnectorEndToEnd(t *testing.T) {
	srv, err := mailsvc.NewServer(mailsvc.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &MailConnector{Addr: srv.Addr().String()}
	s, err := c.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Do(context.Background(), []byte("SEND a@x.com b@x.com,c@x.com hello there")); err != nil {
		t.Fatal(err)
	}
	out, err := s.Do(context.Background(), []byte("LIST b@x.com"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "a@x.com") {
		t.Fatalf("LIST out = %q", out)
	}
	body, err := s.Do(context.Background(), []byte("RETR c@x.com 1"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "hello there" {
		t.Fatalf("RETR out = %q", body)
	}
	if _, err := s.Do(context.Background(), []byte("RETR c@x.com NaN")); err == nil {
		t.Fatal("bad sequence accepted")
	}
}

func TestWebConnectorSingleAndMGet(t *testing.T) {
	web, err := httpserver.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer web.Close()
	web.Handle("/page/", func(req *httpserver.Request) *httpserver.Response {
		return httpserver.Text("content " + req.Path)
	})

	c := &WebConnector{Addr: web.Addr().String(), ServiceName: "yahoo"}
	if c.Name() != "yahoo" {
		t.Fatalf("name = %q", c.Name())
	}
	s, err := c.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	out, err := s.Do(context.Background(), []byte("/page/1.html"))
	if err != nil || string(out) != "content /page/1.html" {
		t.Fatalf("single = %q, %v", out, err)
	}
	out, err = s.Do(context.Background(), []byte("/page/1.html\n/page/2.html"))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := httpserver.DecodeMGetParts(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || string(parts[0].Body) != "content /page/1.html" ||
		string(parts[1].Body) != "content /page/2.html" {
		t.Fatalf("mget parts = %+v", parts)
	}
	if _, err := s.Do(context.Background(), []byte("  \n ")); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := s.Do(context.Background(), []byte("/missing")); err == nil {
		t.Fatal("404 not surfaced as error")
	}
}

func TestWebConnectorDefaultName(t *testing.T) {
	c := &WebConnector{Addr: "127.0.0.1:1"}
	if c.Name() != "web" {
		t.Fatalf("name = %q", c.Name())
	}
}

func TestSplitCommand(t *testing.T) {
	cmd, rest := SplitCommand([]byte("  search dc=example sub "))
	if cmd != "SEARCH" || rest != "dc=example sub" {
		t.Fatalf("SplitCommand = %q, %q", cmd, rest)
	}
	cmd, rest = SplitCommand([]byte("PING"))
	if cmd != "PING" || rest != "" {
		t.Fatalf("SplitCommand = %q, %q", cmd, rest)
	}
}

func TestSQLConnectorConnectError(t *testing.T) {
	c := &SQLConnector{Addr: "127.0.0.1:1", DialTimeout: 100 * time.Millisecond}
	if _, err := c.Connect(context.Background()); err == nil {
		t.Fatal("connect to closed port succeeded")
	}
}

func TestConnectorsRespectCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []Connector{
		&DirConnector{Addr: "127.0.0.1:1"},
		&MailConnector{Addr: "127.0.0.1:1"},
		&WebConnector{Addr: "127.0.0.1:1"},
	} {
		if _, err := c.Connect(ctx); err == nil {
			t.Errorf("%s: Connect with cancelled ctx succeeded", c.Name())
		}
	}
}

func TestPoolDoPropagatesConnectError(t *testing.T) {
	fc := &FuncConnector{
		ServiceName: "down",
		ConnectFn:   func(context.Context) error { return fmt.Errorf("refused") },
		DoFn:        func(context.Context, []byte) ([]byte, error) { return nil, nil },
	}
	p, err := NewPool(fc, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Do(context.Background(), nil); err == nil {
		t.Fatal("pool.Do succeeded with failing connector")
	}
	if p.Dials() != 0 {
		t.Fatalf("dials = %d, want 0 after failed connect", p.Dials())
	}
}

func TestConnectorNames(t *testing.T) {
	for _, tc := range []struct {
		c    Connector
		want string
	}{
		{&FuncConnector{ServiceName: "fn"}, "fn"},
		{&DirConnector{}, "dir"},
		{&MailConnector{}, "mail"},
	} {
		if got := tc.c.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestWebConnectorQueryPreserved(t *testing.T) {
	web, err := httpserver.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer web.Close()
	web.Handle("/echo", func(req *httpserver.Request) *httpserver.Response {
		return httpserver.Text("got " + req.Query["a"])
	})
	c := &WebConnector{Addr: web.Addr().String()}
	s, err := c.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Do(context.Background(), []byte("/echo?a=42"))
	if err != nil || string(out) != "got 42" {
		t.Fatalf("out = %q, %v", out, err)
	}
}
