package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"servicebroker/internal/qos"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Message{
		Type:     TypeRequest,
		ID:       12345,
		Service:  "db",
		Class:    qos.Class2,
		TxnID:    "txn-7",
		TxnStep:  3,
		Fidelity: qos.FidelityCached,
		Status:   StatusOK,
		Flags:    FlagNoCache,
		Payload:  []byte("SELECT * FROM records"),
	}
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.ID != m.ID || got.Service != m.Service ||
		got.Class != m.Class || got.TxnID != m.TxnID || got.TxnStep != m.TxnStep ||
		got.Fidelity != m.Fidelity || got.Status != m.Status || got.Flags != m.Flags ||
		!bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestEncodeDecodeEmptyFields(t *testing.T) {
	m := &Message{Type: TypeResponse, ID: 1}
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != "" || got.TxnID != "" || got.Payload != nil {
		t.Fatalf("empty fields mangled: %+v", got)
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	m := &Message{Type: TypeRequest, Payload: make([]byte, MaxFrame)}
	if _, err := Encode(m); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	m = &Message{Type: TypeRequest, Service: strings.Repeat("s", maxStringLen+1)}
	if _, err := Encode(m); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"short":       {magic0, magic1, codecVersion},
		"bad magic":   append([]byte{'X', 'Y'}, make([]byte, headerSize)...),
		"bad version": append([]byte{magic0, magic1, 99}, make([]byte, headerSize)...),
	}
	for name, frame := range cases {
		if _, err := Decode(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

func TestDecodeRejectsBadType(t *testing.T) {
	m := &Message{Type: TypeRequest, ID: 9}
	frame, _ := Encode(m)
	frame[3] = 77 // corrupt the type byte
	if _, err := Decode(frame); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	m := &Message{Type: TypeRequest, Service: "db", Payload: []byte("hello")}
	frame, _ := Encode(m)
	for cut := headerSize; cut < len(frame); cut++ {
		if _, err := Decode(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

// Property: Decode never panics on arbitrary input.
func TestDecodeNeverPanicsProperty(t *testing.T) {
	f := func(frame []byte) bool {
		_, _ = Decode(frame)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{StatusOK, "ok"}, {StatusDropped, "dropped"}, {StatusError, "error"},
		{StatusShed, "shed"}, {Status(9), "status(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}

// echoServer starts a server whose handler echoes the payload back with
// StatusOK, and returns it with a client connected to it.
func echoServer(t *testing.T, opts ...ClientOption) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		return &Message{Status: StatusOK, Fidelity: qos.FidelityFull, Payload: req.Payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr().String(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestClientServerRoundTrip(t *testing.T) {
	_, cli := echoServer(t)
	resp, err := cli.Call(context.Background(), &Message{Service: "echo", Payload: []byte("ping")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || string(resp.Payload) != "ping" {
		t.Fatalf("resp = %v %q", resp.Status, resp.Payload)
	}
}

func TestClientConcurrentCalls(t *testing.T) {
	_, cli := echoServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte{byte(i)}
			resp, err := cli.Call(context.Background(), &Message{Payload: payload})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if !bytes.Equal(resp.Payload, payload) {
				t.Errorf("call %d: response %v, want %v (cross-talk)", i, resp.Payload, payload)
			}
		}(i)
	}
	wg.Wait()
}

func TestClientContextCancel(t *testing.T) {
	// Handler that never answers in time.
	srv, err := NewServer("127.0.0.1:0", func(ctx context.Context, _ net.Addr, _ *Message) *Message {
		select {
		case <-time.After(10 * time.Second):
		case <-ctx.Done():
		}
		return &Message{Status: StatusOK}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = cli.Call(ctx, &Message{Payload: []byte("x")})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestClientTimeoutAfterAttempts(t *testing.T) {
	// A server socket that never replies: listen and discard.
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, MaxFrame)
		for {
			if _, _, err := conn.ReadFrom(buf); err != nil {
				return
			}
		}
	}()

	cli, err := Dial(conn.LocalAddr().String(), WithRetransmit(20*time.Millisecond), WithAttempts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	_, err = cli.Call(context.Background(), &Message{Payload: []byte("x")})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("gave up after %v, want ≥ 2 × 20ms", elapsed)
	}
}

func TestServerDedupSuppressesReexecution(t *testing.T) {
	var executions atomic.Int64
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		executions.Add(1)
		return &Message{Status: StatusOK, Payload: req.Payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Send the same request frame twice from one socket, read two replies.
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, _ := Encode(&Message{Type: TypeRequest, ID: 42, Payload: []byte("q")})
	buf := make([]byte, MaxFrame)
	for i := 0; i < 2; i++ {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		resp, err := Decode(buf[:n])
		if err != nil || resp.ID != 42 {
			t.Fatalf("read %d: resp %+v err %v", i, resp, err)
		}
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want 1 (dedup)", got)
	}
}

func TestServerIgnoresGarbageDatagrams(t *testing.T) {
	_, cli := echoServer(t)
	// Blast garbage at the server, then verify it still works.
	raw, err := net.Dial("udp", cli.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for i := 0; i < 10; i++ {
		raw.Write([]byte("not a frame"))
	}
	resp, err := cli.Call(context.Background(), &Message{Payload: []byte("still alive")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "still alive" {
		t.Fatalf("resp = %q", resp.Payload)
	}
}

func TestServerNilHandlerResponse(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, _ *Message) *Message {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.Call(context.Background(), &Message{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError {
		t.Fatalf("status = %v, want StatusError", resp.Status)
	}
}

// TestServerSendsHandlerResponseAsIs: the server owns Type and ID and nothing
// else — a shed status, its retry hint, spans and the broker identity reach
// the client exactly as the handler returned them, whatever the request said.
func TestServerSendsHandlerResponseAsIs(t *testing.T) {
	spans := []Span{{Stage: "queue", Start: 1, End: 2}}
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		return &Message{Status: StatusShed, Payload: []byte("busy"), RetryAfterMs: 700,
			TraceID: 9, Spans: spans, BrokerID: "10.0.0.2:7411"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resp, err := cli.Call(context.Background(), &Message{Service: "db"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusShed || resp.RetryAfterMs != 700 || resp.BrokerID != "10.0.0.2:7411" ||
		!reflect.DeepEqual(resp.Spans, spans) || string(resp.Payload) != "busy" {
		t.Fatalf("response rewritten on the way out: %+v", resp)
	}
}

// A payload near MaxFrame leaves no room for a span block; span export is
// best-effort, so the server must deliver the payload anyway.
func TestServerDropsSpansWhenFrameTooLarge(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), MaxFrame-128)
	spans := make([]Span, MaxSpans)
	for i := range spans {
		spans[i] = Span{Stage: "backend", Note: "attempt"}
	}
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		return &Message{Status: StatusOK, TraceID: req.TraceID, Spans: spans, Payload: payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resp, err := cli.Call(context.Background(), &Message{Service: "db", TraceID: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("status = %v, want ok (span overflow must not fail the response)", resp.Status)
	}
	if !bytes.Equal(resp.Payload, payload) {
		t.Fatal("payload corrupted by span fallback")
	}
	if len(resp.Spans) != 0 {
		t.Fatalf("oversized span block delivered %d spans, want 0", len(resp.Spans))
	}
}

func TestNewServerRejectsNilHandler(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", nil); err == nil {
		t.Fatal("NewServer(nil handler) succeeded")
	}
}

func TestClientCloseFailsPendingCalls(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(ctx context.Context, _ net.Addr, _ *Message) *Message {
		<-ctx.Done()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), WithRetransmit(time.Second), WithAttempts(1))
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), &Message{})
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cli.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call did not fail after Close")
	}
	if _, err := cli.Call(context.Background(), &Message{}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after close = %v, want ErrClientClosed", err)
	}
	cli.Close() // double close is a no-op
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		return &Message{Status: StatusOK}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCallRoundTrip(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		return &Message{Status: StatusOK, Payload: req.Payload}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	req := &Message{Service: "db", Payload: []byte("SELECT 1")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
