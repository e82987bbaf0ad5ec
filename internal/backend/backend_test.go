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
	"servicebroker/internal/resilience"
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

// TestPoolKeepsSessionAfterRefusal: a backend's refusal of one request
// (resilience.Permanent) leaves the session in step, so the pool keeps it:
// ten refused requests through a 4-session pool dial once, not ten times.
func TestPoolKeepsSessionAfterRefusal(t *testing.T) {
	dir, err := ldapdir.NewServer(ldapdir.NewDirectory(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	db, err := sqldb.NewServer(sqldb.NewEngine(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, tc := range []struct {
		c       Connector
		refused string
	}{
		{&DirConnector{Addr: dir.Addr().String()}, "DEL cn=missing,dc=example"},
		{&SQLConnector{Addr: db.Addr().String()}, "SELEC nothing FROM nowhere"},
	} {
		p, err := NewPool(tc.c, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := p.Do(context.Background(), []byte(tc.refused)); !resilience.IsPermanent(err) {
				t.Fatalf("%s: %q = %v, want a permanent refusal", tc.c.Name(), tc.refused, err)
			}
		}
		if got := p.Dials(); got != 1 {
			t.Errorf("%s: %d dials for ten refused requests, want 1", tc.c.Name(), got)
		}
		p.Close()
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
// loopback sqldb.Server, client and server together, each budget the measured
// value. The server executes the query frame's bytes where they arrived and
// renders a result from the engine's typed columns straight into its reply
// frame; a statement of a cached shape with only numeric literals allocates
// nothing on the server. What is left is the rendered table the broker keeps
// and the test's own payload. The range read is the benchmark's shape, 15
// rows.
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
		sql, line string // line: the reply's second line, or its first when it has one
		lines     int
		budget    float64
	}{
		{"SELECT id, name FROM records WHERE id = 12345", "12345\trecord-012345", 2, 2},
		{"SELECT id, name, score FROM records WHERE category = 62 AND score BETWEEN 389 AND 427", "", 16, 2},
		{"UPDATE records SET score = 12.345 WHERE id = 41999", "OK, 1 row(s) affected", 1, 2},
	} {
		out, err := s.Do(context.Background(), []byte(tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
		if len(lines) != tc.lines || (tc.line != "" && lines[min(1, len(lines)-1)] != tc.line) {
			t.Fatalf("%s = %q, want %d lines", tc.sql, out, tc.lines)
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

// TestDirConnectorRefusesLineBreaks: a payload holding CR or LF would reach
// the server as two commands; it is refused whole, and the session's next
// request gets its own reply.
func TestDirConnectorRefusesLineBreaks(t *testing.T) {
	dir := ldapdir.NewDirectory()
	for _, dn := range []string{"dc=example", "ou=users,dc=example"} {
		parsed, _ := ldapdir.ParseDN(dn)
		if err := dir.Add(parsed, map[string][]string{"objectclass": {"top"}}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := ldapdir.NewServer(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s, err := (&DirConnector{Addr: srv.Addr().String()}).Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	smuggle := "ADD cn=a,ou=users,dc=example objectclass=person\r\nADD cn=b,ou=users,dc=example objectclass=person"
	if _, err := s.Do(ctx, []byte(smuggle)); !resilience.IsPermanent(err) {
		t.Fatalf("smuggling payload: err = %v, want a permanent error", err)
	}
	if out, err := s.Do(ctx, []byte("SEARCH dc=example sub (|(cn=a)(cn=b))")); err != nil || len(out) != 0 {
		t.Fatalf("after the refusal: SEARCH = %q, %v; want nothing added", out, err)
	}
	if out, err := s.Do(ctx, []byte("SEARCH ou=users,dc=example base")); err != nil || string(out) != "dn: ou=users,dc=example\nobjectclass: top\nou: users\n\n" {
		t.Fatalf("next request: SEARCH = %q, %v", out, err)
	}
}

// TestMailConnectorRefusesLineBreaks: as for the directory, a payload with a
// line break is refused whole: nothing reads another mailbox, and the
// session's next request gets its own reply.
func TestMailConnectorRefusesLineBreaks(t *testing.T) {
	srv, err := mailsvc.NewServer(mailsvc.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s, err := (&MailConnector{Addr: srv.Addr().String()}).Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for _, payload := range []string{"SEND a@x.com b@x.com secret for b", "SEND a@x.com c@x.com hi c"} {
		if _, err := s.Do(ctx, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for _, smuggle := range []string{"LIST c@x.com\r\nRETR b@x.com 1", "SEND a@x.com\r\nRETR b@x.com 1 x"} {
		if out, err := s.Do(ctx, []byte(smuggle)); !resilience.IsPermanent(err) {
			t.Fatalf("%q = %q, %v; want a permanent error", smuggle, out, err)
		}
	}
	if out, err := s.Do(ctx, []byte("LIST c@x.com")); err != nil || string(out) != "1 a@x.com 4\n" {
		t.Fatalf("next request: LIST = %q, %v", out, err)
	}
}

// TestServerErrorRepliesArePermanent: a request the backend itself refuses
// would be refused again, so retrying it cannot help and the replica that
// answered is healthy.
func TestServerErrorRepliesArePermanent(t *testing.T) {
	db, err := sqldb.NewServer(sqldb.NewEngine(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dir, err := ldapdir.NewServer(ldapdir.NewDirectory(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	mail, err := mailsvc.NewServer(mailsvc.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mail.Close()
	for _, tc := range []struct {
		c       Connector
		payload string
	}{
		{&SQLConnector{Addr: db.Addr().String()}, "SELEKT 1"},
		{&DirConnector{Addr: dir.Addr().String()}, "DEL cn=nobody,dc=example"},
		{&DirConnector{Addr: dir.Addr().String()}, "ADD cn=x,dc=example =v"},
		{&MailConnector{Addr: mail.Addr().String()}, "RETR ghost@x.com 1"},
		{&MailConnector{Addr: mail.Addr().String()}, "SEND nodomain b@x.com hi"},
	} {
		s, err := tc.c.Connect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Do(context.Background(), []byte(tc.payload)); !resilience.IsPermanent(err) {
			t.Errorf("%s %q: err = %v, want a permanent error", tc.c.Name(), tc.payload, err)
		}
		s.Close()
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

// Dials reports how many sessions the pool has established.
func (p *Pool) Dials() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials
}

// IdleCount reports the pooled session count.
func (p *Pool) IdleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}
