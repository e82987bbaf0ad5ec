package httpserver

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestIdleConnectionsHoldNoBuffers bounds what an idle keep-alive connection
// keeps, client and server together: its socket, the server session's
// request and head reader, the client's head buffer, but no 4 KiB reader or
// writer. 256 requests are held in the handler at once so that the client
// dials 256 connections, which then sit idle in its pool.
func TestIdleConnectionsHoldNoBuffers(t *testing.T) {
	const conns, budget = 256, 2980
	var arrived sync.WaitGroup
	arrived.Add(conns)
	release := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/db", func(req *Request) *Response {
		arrived.Done()
		<-release
		return respondShaped(req)
	})
	cli := NewClient(srv.Addr().String(), WithPersistent(conns))
	defer cli.Close()

	// The runtime keeps a dead goroutine's descriptor for reuse: make as
	// many as the test runs at once before the first reading.
	var warm sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 2*conns; i++ {
		warm.Add(1)
		go func() { defer warm.Done(); <-gate }()
	}
	close(gate)
	warm.Wait()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	query := map[string]string{"q": "SELECT id, name FROM records WHERE id = 12345", "qos": "1"}
	var done sync.WaitGroup
	for i := 0; i < conns; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			if _, err := cli.Get("/db", query); err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait()
	close(release)
	done.Wait()
	// The pool's buffers go in two collections; the sessions' goroutines
	// are parked in their next read by then.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	cli.mu.Lock()
	idle := len(cli.idle)
	cli.mu.Unlock()
	if idle != conns {
		t.Fatalf("%d idle connections pooled, want %d", idle, conns)
	}
	perConn := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / conns
	t.Logf("%.0f B per idle connection, client and server", perConn)
	if perConn > budget {
		t.Fatalf("%.0f B per idle connection, budget %d", perConn, budget)
	}
}

// TestPipelinedRequestsAnsweredInOrder: two requests in one write leave the
// second in the session's reader while the first is answered.
func TestPipelinedRequestsAnsweredInOrder(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /hello?name=a HTTP/1.1\r\n\r\nGET /hello?name=b HTTP/1.1\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for _, want := range []string{"hello a", "hello b"} {
		resp, _, err := readResponse(r, new([]byte))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != want {
			t.Fatalf("body %q, want %q", resp.Body, want)
		}
	}
}

// TestClientKeepsReaderHoldingNextResponse: a response that arrives with the
// next one behind it leaves bytes in the client's reader, which must stay
// with the connection to answer the next request.
func TestClientKeepsReaderHoldingNextResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		req := &Request{Header: map[string]string{}, Query: map[string]string{}}
		var head []byte
		if readRequest(r, req, &head) != nil {
			return
		}
		io.WriteString(conn, "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nfirst"+
			"HTTP/1.1 200 OK\r\ncontent-length: 6\r\n\r\nsecond")
		readRequest(r, req, &head)
	}()
	cli := NewClient(ln.Addr().String(), WithPersistent(1))
	defer cli.Close()
	for _, want := range []string{"first", "second"} {
		resp, err := cli.Get("/", nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != want {
			t.Fatalf("body %q, want %q", resp.Body, want)
		}
	}
}

// TestHeadAndBodyLongerThanSessionReader: a request head and a body each
// longer than the session's reader still parse.
func TestHeadAndBodyLongerThanSessionReader(t *testing.T) {
	srv := startServer(t)
	srv.Handle("/header", func(req *Request) *Response { return Text(req.Header["x-long"]) })
	cli := NewClient(srv.Addr().String(), WithPersistent(1))
	defer cli.Close()
	long := strings.Repeat("v", 8*sessionReaderSize)
	resp, err := cli.roundTrip(&Request{Method: "GET", Path: "/header", Header: map[string]string{"x-long": long}})
	if err != nil || string(resp.Body) != long {
		t.Fatalf("long header: %v, %d bytes back, want %d", err, len(resp.Body), len(long))
	}
	body := bytes.Repeat([]byte("b"), 64*sessionReaderSize)
	resp, err = cli.roundTrip(&Request{Method: "POST", Path: "/echo", Body: body})
	if err != nil || !bytes.Equal(resp.Body, body) {
		t.Fatalf("long body: %v, %d bytes back, want %d", err, len(resp.Body), len(body))
	}
}

// TestDrainClosesIdleKeepAliveSession: Drain wakes a session parked in its
// next read and closes the connection without waiting for its context.
func TestDrainClosesIdleKeepAliveSession(t *testing.T) {
	srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET /hello HTTP/1.1\r\n\r\n")
	r := bufio.NewReader(conn)
	if _, _, err := readResponse(r, new([]byte)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection after Drain: %v, want EOF", err)
	}
}
