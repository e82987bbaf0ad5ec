package wire

import (
	"bytes"
	"context"
	"net"
	"testing"

	"servicebroker/internal/qos"
)

// allocMessages covers a plain request, a traced one, and responses with a
// span block and a retry hint.
func allocMessages() []*Message {
	return []*Message{
		{ // untraced
			Type: TypeRequest, ID: 7, Service: "db", Class: qos.Class1,
			TxnID: "txn-1", TxnStep: 2, Flags: FlagNoCache,
			Payload: []byte("select * from shows"),
		},
		{ // traced
			Type: TypeRequest, ID: 8, Service: "web", TraceID: 0xfeedbeef,
			Payload: []byte("/movies/today"),
		},
		{ // spans
			Type: TypeResponse, ID: 9, Service: "db", TraceID: 0xabc,
			Status:  StatusOK,
			Spans:   []Span{{Stage: "backend", Note: "q", Start: 100, End: 200}},
			Payload: []byte("result"),
		},
		{ // retry-after hint
			Type: TypeResponse, ID: 10, Service: "db", TraceID: 0xdef,
			Status: StatusShed, RetryAfterMs: 25, Payload: []byte("shed"),
		},
	}
}

// TestAppendEncodeMatchesEncode: the append-into path must produce exactly
// the bytes Encode does, for every message shape, including when appending
// after existing content.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	for i, m := range allocMessages() {
		want, err := Encode(m)
		if err != nil {
			t.Fatalf("msg %d: Encode: %v", i, err)
		}
		got, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("msg %d: AppendEncode: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("msg %d: AppendEncode(nil) differs from Encode", i)
		}
		prefix := []byte("prefix-")
		got, err = AppendEncode(append([]byte(nil), prefix...), m)
		if err != nil {
			t.Fatalf("msg %d: AppendEncode with prefix: %v", i, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("msg %d: AppendEncode did not append after existing content", i)
		}
	}
}

// TestAppendEncodeZeroAllocs is the ISSUE's hot-path gate: encoding into a
// buffer with spare capacity must not allocate, for any message shape.
func TestAppendEncodeZeroAllocs(t *testing.T) {
	buf := make([]byte, 0, MaxFrame)
	for i, m := range allocMessages() {
		allocs := testing.AllocsPerRun(1000, func() {
			var err error
			if _, err = AppendEncode(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("msg %d: AppendEncode = %.1f allocs/op, want 0", i, allocs)
		}
	}
}

// TestEncodeDecodeAllocBudget bounds the full round trip. Encode costs one
// allocation (the frame). Decode builds an independent message — the struct,
// a payload copy, the string fields, and any span block — so its budget is
// fixed per message rather than zero; the gate is that neither side regresses.
func TestEncodeDecodeAllocBudget(t *testing.T) {
	budgets := []float64{5, 5, 8, 5} // per allocMessages entry
	for i, m := range allocMessages() {
		budget := budgets[i]
		allocs := testing.AllocsPerRun(1000, func() {
			frame, err := Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("msg %d: round trip = %.1f allocs/op, budget %.0f", i, allocs, budget)
		}
	}
}

// TestPooledCallPath exercises the client's pooled encode and the server's
// pooled receive end to end, checking correctness is unchanged when buffers
// recycle under concurrency.
func TestPooledCallPath(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(ctx context.Context, from net.Addr, req *Message) *Message {
		return &Message{Status: StatusOK, Service: req.Service, Payload: append([]byte("echo:"), req.Payload...)}
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()

	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				payload := []byte{byte('a' + g), byte(i)}
				resp, err := cli.Call(context.Background(), &Message{Service: "db", Payload: payload})
				if err != nil {
					done <- err
					return
				}
				if want := append([]byte("echo:"), payload...); !bytes.Equal(resp.Payload, want) {
					done <- errTestMismatch
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatalf("pooled call path: %v", err)
		}
	}
}

// TestDecodeIntoZeroAllocs is the decode-side mirror of the AppendEncode
// gate: decoding a plain request (interned service, no txn strings, no
// spans) into a recycled Message must not allocate once the payload buffer
// is warm.
func TestDecodeIntoZeroAllocs(t *testing.T) {
	msgs := []*Message{
		{Type: TypeRequest, ID: 7, Service: "db", Class: qos.Class1, Payload: []byte("select * from shows")},
		{Type: TypeRequest, ID: 8, Service: "db", TraceID: 0xfeedbeef, Payload: []byte("/movies/today")},
	}
	for i, m := range msgs {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		dst := &Message{}
		if err := DecodeInto(dst, frame); err != nil { // warm payload capacity + intern
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := DecodeInto(dst, frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("msg %d: DecodeInto = %.1f allocs/op, want 0", i, allocs)
		}
		if dst.ID != m.ID || string(dst.Payload) != string(m.Payload) || dst.Service != m.Service {
			t.Errorf("msg %d: DecodeInto corrupted the message", i)
		}
	}
}

// TestDecodeIntoMatchesDecode: the in-place path must produce the same
// message as Decode for every message shape, including when the destination is
// dirty from a previous, larger message.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	dirty := &Message{
		Payload: []byte("previous payload that was much longer than the next one"),
		Spans:   []Span{{Stage: "old", Note: "old", Start: 1, End: 2}},
		TxnID:   "stale", BrokerID: "stale", IdemKey: "stale", RetryAfterMs: 99,
	}
	for i, m := range allocMessages() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(dirty, frame); err != nil {
			t.Fatalf("msg %d: DecodeInto: %v", i, err)
		}
		if dirty.ID != want.ID || dirty.Service != want.Service || dirty.TxnID != want.TxnID ||
			dirty.Status != want.Status || dirty.TraceID != want.TraceID ||
			dirty.RetryAfterMs != want.RetryAfterMs || dirty.BrokerID != want.BrokerID ||
			dirty.IdemKey != want.IdemKey || !bytes.Equal(dirty.Payload, want.Payload) ||
			len(dirty.Spans) != len(want.Spans) {
			t.Errorf("msg %d: DecodeInto result differs from Decode", i)
		}
		for j := range want.Spans {
			if dirty.Spans[j] != want.Spans[j] {
				t.Errorf("msg %d span %d: %+v != %+v", i, j, dirty.Spans[j], want.Spans[j])
			}
		}
	}
}

// TestServerPathZeroAllocs pins the ISSUE's acceptance criterion: the
// server's decode→dedup→encode path runs without allocating once warm, on
// both the execute path (handler mutates the pooled request in place) and
// the duplicate path (answered from the dedup ring).
func TestServerPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts by design; pooled paths allocate under -race")
	}
	s := &Server{
		handler: func(_ context.Context, _ net.Addr, req *Message) *Message {
			req.Status = StatusOK
			return req
		},
		index: make(map[dedupKey]int),
	}
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	ctx := context.Background()
	req := &Message{Type: TypeRequest, Service: "db", Class: qos.Class1, Payload: []byte("select * from shows")}

	// Fill the dedup ring past its window so steady-state inserts recycle
	// slots (and the index map reaches its final size) before measuring.
	id := uint64(0)
	fb := make([]byte, 0, MaxFrame)
	sendOne := func() {
		id++
		req.ID = id
		frame, err := AppendEncode(fb[:0], req)
		if err != nil {
			t.Fatal(err)
		}
		bp := s.processFrame(ctx, frame, from)
		if bp == nil {
			t.Fatal("processFrame dropped a valid request")
		}
		putBuf(bp)
	}
	for i := 0; i < dedupWindow+64; i++ {
		sendOne()
	}

	allocs := testing.AllocsPerRun(1000, sendOne)
	if allocs != 0 {
		t.Errorf("execute path = %.1f allocs/op, want 0", allocs)
	}

	// Duplicate path: same frame again must be served from the ring.
	req.ID = id
	dupFrame, err := AppendEncode(fb[:0], req)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		bp := s.processFrame(ctx, dupFrame, from)
		if bp == nil {
			t.Fatal("duplicate dropped")
		}
		putBuf(bp)
	})
	if allocs != 0 {
		t.Errorf("duplicate path = %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkServerProcessFrame(b *testing.B) {
	s := &Server{
		handler: func(_ context.Context, _ net.Addr, req *Message) *Message {
			req.Status = StatusOK
			return req
		},
		index: make(map[dedupKey]int),
	}
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	ctx := context.Background()
	req := &Message{Type: TypeRequest, Service: "db", Class: qos.Class1, Payload: []byte("select * from shows")}
	fb := make([]byte, 0, MaxFrame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uint64(i + 1)
		frame, err := AppendEncode(fb[:0], req)
		if err != nil {
			b.Fatal(err)
		}
		bp := s.processFrame(ctx, frame, from)
		if bp == nil {
			b.Fatal("dropped")
		}
		putBuf(bp)
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	frame, err := Encode(&Message{Type: TypeRequest, ID: 7, Service: "db", Payload: []byte("select * from shows")})
	if err != nil {
		b.Fatal(err)
	}
	m := &Message{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(m, frame); err != nil {
			b.Fatal(err)
		}
	}
}

var errTestMismatch = errTest("response payload mismatch")

type errTest string

func (e errTest) Error() string { return string(e) }
