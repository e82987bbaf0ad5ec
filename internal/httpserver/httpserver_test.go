package httpserver

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// startServer builds a server with a few standard handlers.
func startServer(t *testing.T, opts ...ServerOption) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Handle("/hello", func(req *Request) *Response {
		return Text("hello " + req.Query["name"])
	})
	srv.Handle("/echo", func(req *Request) *Response {
		return NewResponse(200, req.Body)
	})
	srv.Handle("/static/", func(req *Request) *Response {
		return Text("file:" + req.Path)
	})
	return srv
}

func TestGetWithQuery(t *testing.T) {
	srv := startServer(t)
	cli := NewClient(srv.Addr().String())
	defer cli.Close()
	resp, err := cli.Get("/hello", map[string]string{"name": "world of brokers"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "hello world of brokers" {
		t.Fatalf("resp = %d %q", resp.Status, resp.Body)
	}
}

func TestPostBody(t *testing.T) {
	srv := startServer(t)
	cli := NewClient(srv.Addr().String())
	defer cli.Close()
	payload := bytes.Repeat([]byte("x"), 10000)
	resp, err := cli.roundTrip(&Request{Method: "POST", Path: "/echo", Body: payload})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Body, payload) {
		t.Fatalf("echo body %d bytes, want %d", len(resp.Body), len(payload))
	}
}

func TestNotFound(t *testing.T) {
	srv := startServer(t)
	cli := NewClient(srv.Addr().String())
	defer cli.Close()
	resp, err := cli.Get("/nowhere", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("status = %d, want 404", resp.Status)
	}
}

func TestPrefixRouting(t *testing.T) {
	srv := startServer(t)
	srv.Handle("/static/deep/", func(req *Request) *Response { return Text("deep") })
	cli := NewClient(srv.Addr().String())
	defer cli.Close()
	resp, _ := cli.Get("/static/a.html", nil)
	if string(resp.Body) != "file:/static/a.html" {
		t.Fatalf("prefix route body = %q", resp.Body)
	}
	resp, _ = cli.Get("/static/deep/b.html", nil)
	if string(resp.Body) != "deep" {
		t.Fatalf("longest-prefix route body = %q", resp.Body)
	}
}

func TestHandlerPanicIs500(t *testing.T) {
	srv := startServer(t)
	srv.Handle("/boom", func(req *Request) *Response { panic("kaboom") })
	cli := NewClient(srv.Addr().String())
	defer cli.Close()
	resp, err := cli.Get("/boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 500 || !strings.Contains(string(resp.Body), "kaboom") {
		t.Fatalf("resp = %d %q", resp.Status, resp.Body)
	}
	if srv.Metrics().Counter("panics").Value() != 1 {
		t.Fatal("panic not counted")
	}
}

func TestNilHandlerResponseIs500(t *testing.T) {
	srv := startServer(t)
	srv.Handle("/nil", func(req *Request) *Response { return nil })
	cli := NewClient(srv.Addr().String())
	defer cli.Close()
	resp, err := cli.Get("/nil", nil)
	if err != nil || resp.Status != 500 {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
}

func TestKeepAliveReusesConnection(t *testing.T) {
	srv := startServer(t)
	cli := NewClient(srv.Addr().String(), WithPersistent(2))
	defer cli.Close()
	for i := 0; i < 5; i++ {
		if _, err := cli.Get("/hello", nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// All five requests should ride one connection. The server counts
	// sessions via the "requests" counter vs... count connections through a
	// second client with keep-alive off for contrast.
	cli2 := NewClient(srv.Addr().String())
	defer cli2.Close()
	for i := 0; i < 5; i++ {
		if _, err := cli2.Get("/hello", nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := srv.Metrics().Counter("requests").Value(); got != 10 {
		t.Fatalf("requests = %d, want 10", got)
	}
}

func TestMaxClientsSerializes(t *testing.T) {
	const delay = 30 * time.Millisecond
	srv, err := NewServer("127.0.0.1:0", WithMaxClients(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/slow", func(req *Request) *Response {
		time.Sleep(delay)
		return Text("done")
	})

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := NewClient(srv.Addr().String())
			defer cli.Close()
			if _, err := cli.Get("/slow", nil); err != nil {
				t.Errorf("get: %v", err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 3*delay {
		t.Fatalf("3 requests with MaxClients=1 took %v, want ≥ %v", elapsed, 3*delay)
	}
}

func TestMaxClientsAllowsParallelism(t *testing.T) {
	const delay = 50 * time.Millisecond
	srv, err := NewServer("127.0.0.1:0", WithMaxClients(4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/slow", func(req *Request) *Response {
		time.Sleep(delay)
		return Text("done")
	})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := NewClient(srv.Addr().String())
			defer cli.Close()
			cli.Get("/slow", nil)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 3*delay {
		t.Fatalf("4 parallel requests with MaxClients=4 took %v, want ≈ %v", elapsed, delay)
	}
}

func TestMGet(t *testing.T) {
	srv := startServer(t)
	var calls atomic.Int64
	srv.Handle("/page/", func(req *Request) *Response {
		calls.Add(1)
		return Text("body of " + req.Path)
	})
	cli := NewClient(srv.Addr().String(), WithPersistent(1))
	defer cli.Close()
	parts, err := cli.MGet([]string{"/page/1.html", "/page/2.html", "/missing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	if parts[0].Status != 200 || string(parts[0].Body) != "body of /page/1.html" {
		t.Fatalf("part 0 = %+v", parts[0])
	}
	if parts[1].URI != "/page/2.html" {
		t.Fatalf("part 1 URI = %s", parts[1].URI)
	}
	if parts[2].Status != 404 {
		t.Fatalf("part 2 status = %d, want 404", parts[2].Status)
	}
	if calls.Load() != 2 {
		t.Fatalf("handler calls = %d, want 2", calls.Load())
	}
}

func TestMGetWithQueryParams(t *testing.T) {
	srv := startServer(t)
	cli := NewClient(srv.Addr().String())
	defer cli.Close()
	parts, err := cli.MGet([]string{"/hello?name=a", "/hello?name=b"})
	if err != nil {
		t.Fatal(err)
	}
	if string(parts[0].Body) != "hello a" || string(parts[1].Body) != "hello b" {
		t.Fatalf("parts = %q, %q", parts[0].Body, parts[1].Body)
	}
}

func TestMGetCountsAsOneRequestUnderMaxClients(t *testing.T) {
	// An MGET of N URIs occupies one MaxClients slot — that is exactly the
	// paper's point: clustering reduces simultaneous backend requests.
	srv, err := NewServer("127.0.0.1:0", WithMaxClients(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/p/", func(req *Request) *Response {
		time.Sleep(10 * time.Millisecond)
		return Text("x")
	})
	cli := NewClient(srv.Addr().String())
	defer cli.Close()
	start := time.Now()
	if _, err := cli.MGet([]string{"/p/1", "/p/2", "/p/3"}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("MGET of 3 took %v; parts should run sequentially in one slot", elapsed)
	}
}

func TestBadRequestLine(t *testing.T) {
	srv := startServer(t)
	// Speak raw TCP garbage to the server.
	cli := NewClient(srv.Addr().String())
	defer cli.Close()
	cc, err := cli.get()
	if err != nil {
		t.Fatal(err)
	}
	defer cc.conn.Close()
	fmt.Fprintf(cc.conn, "WHAT\r\n\r\n")
	resp, _, err := readResponse(bufio.NewReader(cc.conn), &cc.head)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 400 {
		t.Fatalf("status = %d, want 400", resp.Status)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := startServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli := NewClient(srv.Addr().String(), WithPersistent(1))
			defer cli.Close()
			for j := 0; j < 20; j++ {
				name := fmt.Sprintf("c%d-%d", i, j)
				resp, err := cli.Get("/hello", map[string]string{"name": name})
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if string(resp.Body) != "hello "+name {
					t.Errorf("body = %q, want hello %s", resp.Body, name)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestServerCloseStopsSessions(t *testing.T) {
	srv := startServer(t)
	cli := NewClient(srv.Addr().String(), WithPersistent(1))
	defer cli.Close()
	if _, err := cli.Get("/hello", nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close() // idempotent
}

func TestHandleValidation(t *testing.T) {
	srv := startServer(t)
	for _, tc := range []struct {
		pattern string
		h       Handler
	}{
		{"nope", func(*Request) *Response { return nil }},
		{"/ok", nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Handle(%q) did not panic", tc.pattern)
				}
			}()
			srv.Handle(tc.pattern, tc.h)
		}()
	}
}

func TestQueryCodecRoundTrip(t *testing.T) {
	q := map[string]string{"a": "1", "name": "hello world", "sym": "x=y&z"}
	enc := string(appendQuery(nil, q))
	got := map[string]string{}
	parseQuery(got, enc)
	for k, v := range q {
		if got[k] != v {
			t.Errorf("key %q = %q, want %q (enc %q)", k, got[k], v, enc)
		}
	}
}

// Property: query encode/decode round-trips for printable-safe keys.
func TestQueryRoundTripProperty(t *testing.T) {
	f := func(vals []string) bool {
		q := map[string]string{}
		for i, v := range vals {
			if len(v) > 100 {
				continue
			}
			q[fmt.Sprintf("k%d", i)] = v
		}
		got := map[string]string{}
		parseQuery(got, string(appendQuery(nil, q)))
		if len(got) != len(q) {
			return false
		}
		for k, v := range q {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MGET part codec round-trips.
func TestMGetCodecProperty(t *testing.T) {
	f := func(bodies [][]byte, statuses []uint8) bool {
		n := len(bodies)
		if len(statuses) < n {
			n = len(statuses)
		}
		if n == 0 || n > 20 {
			return true
		}
		uris := make([]string, n)
		parts := make([]*Response, n)
		for i := 0; i < n; i++ {
			uris[i] = fmt.Sprintf("/u/%d", i)
			parts[i] = NewResponse(200+int(statuses[i])%300, bodies[i])
		}
		decoded, err := DecodeMGetParts(EncodeMGetParts(uris, parts))
		if err != nil || len(decoded) != n {
			return false
		}
		for i := range decoded {
			if decoded[i].URI != uris[i] || decoded[i].Status != parts[i].Status ||
				!bytes.Equal(decoded[i].Body, parts[i].Body) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DecodeMGetParts never panics on arbitrary input.
func TestMGetDecodeNeverPanicsProperty(t *testing.T) {
	f := func(body []byte) bool {
		_, _ = DecodeMGetParts(body)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(200) != "OK" || StatusText(404) != "Not Found" {
		t.Fatal("standard texts wrong")
	}
	if StatusText(299) != "Status 299" {
		t.Fatalf("fallback = %q", StatusText(299))
	}
}

func BenchmarkRoundTripKeepAlive(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/bench", func(req *Request) *Response { return Text("ok") })
	cli := NewClient(srv.Addr().String(), WithPersistent(1))
	defer cli.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get("/bench", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripPerRequestConnection(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/bench", func(req *Request) *Response { return Text("ok") })
	cli := NewClient(srv.Addr().String())
	defer cli.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Get("/bench", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMGetTenURIs(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/p/", func(req *Request) *Response { return Text("part") })
	cli := NewClient(srv.Addr().String(), WithPersistent(1))
	defer cli.Close()
	uris := make([]string, 10)
	for i := range uris {
		uris[i] = fmt.Sprintf("/p/%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.MGet(uris); err != nil {
			b.Fatal(err)
		}
	}
}
