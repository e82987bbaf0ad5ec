package wire

import (
	"bytes"
	"context"
	"encoding/hex"
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

// formerContainer is a multi-frame datagram in the layout clients once used
// to batch requests — magic, version, a zero marker, a frame count, then
// (length, frame) pairs — wrapping two valid requests, IDs 1 and 2 to "db".
// It is also a FuzzDecode corpus seed (testdata/fuzz).
const formerContainer = "534207000002" +
	"00000024" + "5342070100000000000000010000000000000002646200000000000853454c4543542031" +
	"00000024" + "5342070100000000000000020000000000000002646200000000000853454c4543542032"

// TestServerIgnoresContainerDatagram: a datagram carries one frame, so a
// container is garbage like any other — neither request inside it runs and
// nothing is sent back.
func TestServerIgnoresContainerDatagram(t *testing.T) {
	var executions atomic.Int64
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		executions.Add(1)
		return &Message{Status: StatusOK, Payload: req.Payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	container, err := hex.DecodeString(formerContainer)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(container); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var ne net.Error
	if n, err := conn.Read(make([]byte, MaxFrame)); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("container answered: %d bytes, err %v", n, err)
	}
	if got := executions.Load(); got != 0 {
		t.Fatalf("handler ran %d times for a container, want 0", got)
	}
}

// TestServerKeepsOneReplyForSequentialCalls: a client's ack lets the server
// forget each reply once the next call says it arrived, so a sequential
// caller costs the server one kept reply however many calls it makes.
func TestServerKeepsOneReplyForSequentialCalls(t *testing.T) {
	srv, cli := echoServer(t)
	for i := 0; i < 10000; i++ {
		if _, err := cli.Call(context.Background(), &Message{Service: "db", Payload: []byte("q")}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.nkept > 1 || len(srv.peers) != 1 {
		t.Fatalf("after 10,000 sequential calls the server keeps %d replies for %d peers, want ≤ 1 for 1",
			srv.nkept, len(srv.peers))
	}
}

// TestServerKeptShrinksAfterBurst: a burst of calls that do not ack grows a
// peer's kept slice; the ack that follows forgets them, and the slice does
// not keep the burst's capacity.
func TestServerKeptShrinksAfterBurst(t *testing.T) {
	s := testServer(inPlace)
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	inc := uint64(5) << 32
	const burst = 1000
	for id := inc + 1; id <= inc+burst; id++ {
		if bp := s.processFrame(context.Background(), mustEncode(t, &Message{Type: TypeRequest, ID: id}), from); bp == nil {
			t.Fatal("processFrame dropped a valid request")
		}
	}
	p := s.peers[makePeerKey(from)]
	if len(p.kept) != burst || cap(p.kept) < burst {
		t.Fatalf("after the burst: %d kept in capacity %d, want %d", len(p.kept), cap(p.kept), burst)
	}
	last := inc + burst + 1
	if bp := s.processFrame(context.Background(), mustEncode(t, &Message{Type: TypeRequest, ID: last, Ack: last}), from); bp == nil {
		t.Fatal("processFrame dropped the acking request")
	}
	if len(p.kept) != 1 || cap(p.kept) > minKeptCap {
		t.Fatalf("after the ack: %d kept in capacity %d, want 1 in at most %d", len(p.kept), cap(p.kept), minKeptCap)
	}
}

// TestServerDropsLateDuplicateBelowAck: once a client acks past a request,
// a late copy of it is neither run nor answered — the client has the reply.
func TestServerDropsLateDuplicateBelowAck(t *testing.T) {
	var executions atomic.Int64
	s := testServer(func(_ context.Context, _ net.Addr, req *Message) *Message {
		executions.Add(1)
		return &Message{Status: StatusOK, Payload: req.Payload}
	})
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	inc := uint64(3) << 32
	first := mustEncode(t, &Message{Type: TypeRequest, ID: inc + 1, Ack: inc + 1, Payload: []byte("a")})
	second := mustEncode(t, &Message{Type: TypeRequest, ID: inc + 2, Ack: inc + 2, Payload: []byte("b")})
	for _, frame := range [][]byte{first, second} {
		if bp := s.processFrame(context.Background(), frame, from); bp == nil {
			t.Fatal("processFrame dropped a valid request")
		}
	}
	if bp := s.processFrame(context.Background(), first, from); bp != nil {
		t.Fatal("late duplicate below the ack was answered")
	}
	if got := executions.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2", got)
	}
}

// TestServerNewClientOnReusedPort: a client that binds the local port an
// earlier client used starts its IDs where the earlier one did only by
// chance of one in 2^32. Its first call must run, not be answered with the
// earlier client's reply to the same ID.
func TestServerNewClientOnReusedPort(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		return &Message{Status: StatusOK, Payload: append([]byte("from "), req.Payload...)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raddr := srv.Addr().(*net.UDPAddr)
	call := func(laddr *net.UDPAddr, who string) (*net.UDPAddr, string) {
		var conn *net.UDPConn
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if conn, err = net.DialUDP("udp", laddr, raddr); err == nil || time.Now().After(deadline) {
				break
			}
		}
		if err != nil {
			t.Fatalf("bind %v: %v", laddr, err)
		}
		cli := newClient(conn)
		defer cli.Close()
		resp, err := cli.Call(context.Background(), &Message{Payload: []byte(who)})
		if err != nil {
			t.Fatalf("call from %s: %v", who, err)
		}
		return conn.LocalAddr().(*net.UDPAddr), string(resp.Payload)
	}
	port, got := call(nil, "A")
	if got != "from A" {
		t.Fatalf("first client got %q", got)
	}
	if _, got = call(port, "B"); got != "from B" {
		t.Fatalf("second client on port %d got %q, want \"from B\"", port.Port, got)
	}
}

// TestServerDropsDuplicateWhileRunning: a retransmission that arrives while
// the first copy is still in the handler is dropped, not run a second time;
// once the first copy has answered, a retransmission gets its reply.
func TestServerDropsDuplicateWhileRunning(t *testing.T) {
	var executions atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		if executions.Add(1) == 1 {
			close(started)
			<-release
		}
		return &Message{Status: StatusOK, Payload: req.Payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	frame := mustEncode(t, &Message{Type: TypeRequest, ID: 42, Payload: []byte("q")})

	first := make(chan *[]byte)
	go func() { first <- srv.processFrame(context.Background(), frame, from) }()
	<-started
	if bp := srv.processFrame(context.Background(), frame, from); bp != nil {
		t.Error("duplicate answered while the first copy runs")
	}
	close(release)
	if bp := <-first; bp == nil {
		t.Fatal("first copy not answered")
	}
	bp := srv.processFrame(context.Background(), frame, from)
	if bp == nil {
		t.Fatal("retransmission after the reply was not answered")
	}
	if resp, err := Decode(*bp); err != nil || resp.ID != 42 || string(resp.Payload) != "q" {
		t.Fatalf("retransmission answered with %+v, %v", resp, err)
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
}

// stuckConn loses the server's first reply to the request whose payload is
// "stuck", and holds back that request's retransmissions until release is
// closed, so its client keeps waiting while other calls go on.
type stuckConn struct {
	net.PacketConn
	lost, release chan struct{}
	copies        int // read side only
	dropped       atomic.Bool
}

func (c *stuckConn) ReadFrom(b []byte) (int, net.Addr, error) {
	for {
		n, from, err := c.PacketConn.ReadFrom(b)
		if err == nil && isStuck(b[:n]) {
			c.copies++
			select {
			case <-c.release:
			default:
				if c.copies > 1 {
					continue
				}
			}
		}
		return n, from, err
	}
}

func (c *stuckConn) WriteTo(b []byte, to net.Addr) (int, error) {
	if isStuck(b) && c.dropped.CompareAndSwap(false, true) {
		close(c.lost)
		return len(b), nil
	}
	return c.PacketConn.WriteTo(b, to)
}

func isStuck(frame []byte) bool {
	m, err := Decode(frame)
	return err == nil && string(m.Payload) == "stuck"
}

// TestServerKeepsReplyOfStuckCall: a call whose reply was lost stays the
// lowest pending ID, so every later call acks it and its reply is kept however
// many later calls the server answers meanwhile — 5,000 here, past the
// 4,096-entry cap — and its retransmission is answered, not run again.
func TestServerKeepsReplyOfStuckCall(t *testing.T) {
	var stuckRuns atomic.Int64
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := &stuckConn{PacketConn: pc, lost: make(chan struct{}), release: make(chan struct{})}
	srv, err := NewServerConn(conn, func(_ context.Context, _ net.Addr, req *Message) *Message {
		if string(req.Payload) == "stuck" {
			stuckRuns.Add(1)
		}
		return &Message{Status: StatusOK, Payload: req.Payload}
	})
	if err != nil {
		pc.Close()
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), WithRetransmit(20*time.Millisecond), WithAttempts(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	stuck := make(chan error, 1)
	go func() {
		resp, err := cli.Call(ctx, &Message{Payload: []byte("stuck")})
		if err == nil && string(resp.Payload) != "stuck" {
			err = errTestMismatch
		}
		stuck <- err
	}()
	<-conn.lost

	const later, workers = 5000, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < later/workers; i++ {
				if _, err := cli.Call(ctx, &Message{Payload: []byte("later")}); err != nil {
					t.Errorf("later call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(conn.release)
	if err := <-stuck; err != nil {
		t.Fatalf("stuck call: %v", err)
	}
	if got := stuckRuns.Load(); got != 1 {
		t.Fatalf("stuck request ran %d times, want 1", got)
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
