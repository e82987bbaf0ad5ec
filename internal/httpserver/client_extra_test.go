package httpserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"servicebroker/internal/netsim"
)

func TestClientTimeoutOnSlowServer(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/slow", func(req *Request) *Response {
		time.Sleep(500 * time.Millisecond)
		return Text("late")
	})
	cli := NewClient(srv.Addr().String(), WithTimeout(50*time.Millisecond))
	defer cli.Close()
	if _, err := cli.Get("/slow", nil); err == nil {
		t.Fatal("slow response did not time out")
	}
}

func TestClientTimeoutOnDial(t *testing.T) {
	cli := NewClient("127.0.0.1:1", WithTimeout(100*time.Millisecond))
	defer cli.Close()
	if _, err := cli.Get("/x", nil); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestClientCustomDialer(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/ping", func(req *Request) *Response { return Text("pong") })

	dialer := netsim.Dialer{Profile: netsim.LAN}
	cli := NewClient(srv.Addr().String(), WithDial(dialer.Dial))
	defer cli.Close()
	resp, err := cli.Get("/ping", nil)
	if err != nil || string(resp.Body) != "pong" {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
}

func TestClientUseAfterClose(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(srv.Addr().String())
	cli.Close()
	if _, err := cli.Get("/x", nil); err == nil {
		t.Fatal("request after close succeeded")
	}
	cli.Close() // idempotent
}

func TestClientRetriesStalePooledConnection(t *testing.T) {
	// A server that answers one request per connection and then hangs up
	// without saying so: the client pools the connection, and the server
	// has closed it by the time the client reuses it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if _, err := ReadRequest(bufio.NewReader(conn)); err == nil {
				conn.Write([]byte("HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok"))
			}
			conn.Close()
		}
	}()

	cli := NewClient(l.Addr().String(), WithPersistent(1))
	defer cli.Close()
	if _, err := cli.Get("/x", nil); err != nil {
		t.Fatal(err)
	}
	// The pooled connection is closed underneath the client; it must
	// transparently retry on a fresh one.
	time.Sleep(20 * time.Millisecond)
	resp, err := cli.Get("/x", nil)
	if err != nil {
		t.Fatalf("retry after stale pooled conn failed: %v", err)
	}
	if string(resp.Body) != "ok" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestMGetRejectsEmptyList(t *testing.T) {
	cli := NewClient("127.0.0.1:1")
	defer cli.Close()
	if _, err := cli.MGet(nil); err == nil {
		t.Fatal("empty MGet accepted")
	}
}

func TestServerRejectsOversizedContentLength(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/x", func(req *Request) *Response { return Text("x") })

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("POST /x HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n"))
	buf := make([]byte, 1024)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "400") {
		t.Fatalf("response = %q, want 400", buf[:n])
	}
}

func TestServerRejectsMGetWithoutTargets(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("MGET HTTP/1.1\r\n\r\n"))
	buf := make([]byte, 1024)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "400") {
		t.Fatalf("response = %q, want 400", buf[:n])
	}
}

// Property: ReadRequest never panics on arbitrary bytes.
func TestReadRequestNeverPanicsProperty(t *testing.T) {
	f := func(raw []byte) bool {
		r := bufio.NewReader(bytes.NewReader(raw))
		_, _ = ReadRequest(r)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadRequest never panics on line-structured input resembling
// requests, which reaches deeper parser paths than raw bytes.
func TestReadRequestStructuredNeverPanicsProperty(t *testing.T) {
	pieces := []string{
		"GET", "POST", "MGET", "/x", "URI:/a", "HTTP/1.1", "HTTP/9",
		"\r\n", "\n", ":", "content-length", "99", "-1", " ", "host: h",
	}
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(pieces[int(p)%len(pieces)])
			b.WriteByte(' ')
		}
		b.WriteString("\r\n\r\n")
		r := bufio.NewReader(strings.NewReader(b.String()))
		_, _ = ReadRequest(r)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// fakeServer answers the request on its i-th connection with replies[i] and
// closes it; connections beyond the list get the last reply.
func fakeServer(t *testing.T, replies ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			r := bufio.NewReader(conn)
			for {
				line, err := r.ReadString('\n')
				if err != nil || line == "\r\n" {
					break
				}
			}
			conn.Write([]byte(replies[min(i, len(replies)-1)]))
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

// A backend that declares an absurd length or sends an endless head gets an
// error, not a crashed caller, and the next request works.
func TestClientRejectsOversizedResponse(t *testing.T) {
	const ok = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok"
	for name, bad := range map[string]string{
		"content-length": "HTTP/1.1 200 OK\r\ncontent-length: 1125899906842624\r\n\r\n",
		"head":           "HTTP/1.1 200 OK\r\nx-big: " + strings.Repeat("a", 1<<20) + "\r\n\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			cli := NewClient(fakeServer(t, bad, ok))
			defer cli.Close()
			if _, err := cli.Get("/x", nil); err == nil {
				t.Fatal("oversized response accepted")
			}
			resp, err := cli.Get("/x", nil)
			if err != nil || string(resp.Body) != "ok" {
				t.Fatalf("next request: %v, %v", resp, err)
			}
		})
	}
}

// A request head past the cap is answered 400 and the connection closed.
func TestServerRejectsOversizedHead(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/x", func(req *Request) *Response { return Text("x") })
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Write([]byte("GET /x HTTP/1.1\r\nx-big: " + strings.Repeat("a", 1<<20) + "\r\n\r\n"))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	status, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(status, "HTTP/1.1 400 ") {
		t.Fatalf("status line %q, %v; want 400", status, err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("connection left open after 400: %v", err)
	}
}
