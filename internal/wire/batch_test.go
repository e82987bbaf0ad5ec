package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// batchMessages returns a few distinct messages to pack into containers.
func batchMessages() []*Message {
	return []*Message{
		{Type: TypeRequest, ID: 1, Service: "db", Payload: []byte("q1")},
		{Type: TypeRequest, ID: 2, Service: "db", TraceID: 0xabc, Payload: []byte("q2")},
		{Type: TypeResponse, ID: 3, Service: "dir", Status: StatusOK, Payload: []byte("r3")},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var frames [][]byte
	for _, m := range batchMessages() {
		f, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	container, err := AppendBatch(nil, frames)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if !IsBatch(container) {
		t.Fatal("IsBatch(container) = false")
	}
	var got [][]byte
	if err := DecodeBatch(container, func(f []byte) error {
		got = append(got, append([]byte(nil), f...))
		return nil
	}); err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != len(frames) {
		t.Fatalf("DecodeBatch yielded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("frame %d differs after container round trip", i)
		}
		if _, err := Decode(got[i]); err != nil {
			t.Errorf("frame %d no longer decodes: %v", i, err)
		}
	}
}

// TestBatchFramesAndContainersAreDistinct: IsBatch never matches a plain
// frame, and Decode rejects a container like garbage — the marker byte is
// not a message type.
func TestBatchFramesAndContainersAreDistinct(t *testing.T) {
	for i, m := range allocMessages() {
		if IsBatch(mustEncode(t, m)) {
			t.Errorf("msg %d: IsBatch = true for a plain frame", i)
		}
	}
	frames := [][]byte{mustEncode(t, batchMessages()[0]), mustEncode(t, batchMessages()[1])}
	container, err := AppendBatch(nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(container); !errors.Is(err, ErrBadFrame) {
		t.Errorf("Decode(container) = %v, want ErrBadFrame", err)
	}
}

func mustEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	f, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBatchMalformed(t *testing.T) {
	frames := [][]byte{mustEncode(t, batchMessages()[0]), mustEncode(t, batchMessages()[1])}
	good, err := AppendBatch(nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"header only":      good[:batchHeaderSize],
		"truncated length": good[:batchHeaderSize+2],
		"truncated frame":  good[:len(good)-3],
		"trailing bytes":   append(append([]byte(nil), good...), 0xff),
		"bad magic":        append([]byte{'X', 'B'}, good[2:]...),
		"zero count":       {magic0, magic1, codecVersion, batchMarker, 0, 0},
		"bad marker":       {magic0, magic1, codecVersion, 9, 0, 1},
	}
	for name, buf := range cases {
		if err := DecodeBatch(buf, func([]byte) error { return nil }); err == nil {
			t.Errorf("DecodeBatch(%s) = nil error, want ErrBadFrame", name)
		}
	}
	if _, err := AppendBatch(nil, nil); err == nil {
		t.Error("AppendBatch(no frames) succeeded")
	}
	big := make([]byte, MaxFrame/2)
	if _, err := AppendBatch(nil, [][]byte{big, big, big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized AppendBatch = %v, want ErrFrameTooLarge", err)
	}
}

// bareFrameServer is a minimal responder without container support: it
// decodes only bare frames and answers each with a bare frame, dropping
// anything else.
func bareFrameServer(t *testing.T) (net.Addr, func()) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, MaxFrame)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			m, err := Decode(buf[:n])
			if err != nil || m.Type != TypeRequest {
				continue // containers are garbage here
			}
			out, err := Encode(&Message{Type: TypeResponse, ID: m.ID, Status: StatusOK, Payload: m.Payload})
			if err != nil {
				continue
			}
			_, _ = pc.WriteTo(out, from)
		}
	}()
	return pc.LocalAddr(), func() {
		pc.Close()
		<-done
	}
}

// TestBatchingClientSendsLoneFramesBare: a batching client whose calls do not
// share a flush window emits only bare frames, so it works against a server
// that cannot unpack containers.
func TestBatchingClientSendsLoneFramesBare(t *testing.T) {
	addr, stop := bareFrameServer(t)
	defer stop()
	cli, err := Dial(addr.String(), WithBatching(time.Millisecond), WithRetransmit(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 8; i++ {
		resp, err := cli.Call(context.Background(), &Message{Service: "db", Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(resp.Payload) != 1 || resp.Payload[0] != byte(i) {
			t.Fatalf("call %d: wrong payload %q", i, resp.Payload)
		}
	}
	st := cli.IOStats()
	if st.FramesOut != st.DatagramsOut {
		t.Errorf("sequential batching client sent %d frames in %d datagrams; lone frames must go out bare",
			st.FramesOut, st.DatagramsOut)
	}
}

// TestServerAnswersBareFrameBare: a raw socket speaking bare frames — an
// unbatched client's entire wire behavior — gets bare replies back.
func TestServerAnswersBareFrameBare(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		return &Message{Status: StatusOK, Payload: append([]byte("ok:"), req.Payload...)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := mustEncode(t, &Message{Type: TypeRequest, ID: 42, Service: "db", Payload: []byte("hi")})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, MaxFrame)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("bare-frame client got no reply: %v", err)
	}
	if IsBatch(buf[:n]) {
		t.Fatal("server sent a container to a bare-frame client")
	}
	resp, err := Decode(buf[:n])
	if err != nil {
		t.Fatalf("reply does not decode: %v", err)
	}
	if resp.ID != 42 || string(resp.Payload) != "ok:hi" {
		t.Fatalf("unexpected reply %d %q", resp.ID, resp.Payload)
	}
}

// TestBatchedCallsEndToEnd drives a batching client hard enough that flush
// windows are shared, and checks both correctness (every call gets its own
// answer) and that containers actually formed in both directions.
func TestBatchedCallsEndToEnd(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(_ context.Context, _ net.Addr, req *Message) *Message {
		req.Status = StatusOK
		return req // echo in place: payload identifies the call
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), WithBatching(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const goroutines, rounds = 16, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				payload := []byte{byte(g), byte(i)}
				resp, err := cli.Call(context.Background(), &Message{Service: "db", Payload: payload})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Payload, payload) {
					errs <- errTestMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	st := cli.IOStats()
	if st.FramesOut <= st.DatagramsOut {
		t.Errorf("no request containers formed: %d frames in %d datagrams", st.FramesOut, st.DatagramsOut)
	}
	sst := srv.IOStats()
	if sst.FramesOut <= sst.DatagramsOut {
		t.Errorf("no reply containers formed: %d frames in %d datagrams", sst.FramesOut, sst.DatagramsOut)
	}
}

// FuzzDecodeBatch mirrors FuzzDecode for the container: whatever the
// walker accepts must survive a re-batch round trip, and malformed input
// must error rather than panic or over-read.
func FuzzDecodeBatch(f *testing.F) {
	var frames [][]byte
	for _, m := range batchMessages() {
		enc, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, enc)
	}
	if seed, err := AppendBatch(nil, frames); err == nil {
		f.Add(seed)
		f.Add(seed[:len(seed)-1])
		f.Add(seed[:batchHeaderSize])
	}
	if lone, err := AppendBatch(nil, frames[:1]); err == nil {
		f.Add(lone)
	}
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, codecVersion, batchMarker, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got [][]byte
		if err := DecodeBatch(data, func(fr []byte) error {
			got = append(got, append([]byte(nil), fr...))
			return nil
		}); err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatal("DecodeBatch succeeded with zero frames")
		}
		if len(data) > MaxFrame {
			// The walker tolerates oversized input (the socket layer already
			// bounds datagrams); AppendBatch would rightly refuse to rebuild.
			return
		}
		rebuilt, err := AppendBatch(nil, got)
		if err != nil {
			t.Fatalf("re-batching %d accepted frames: %v", len(got), err)
		}
		var again [][]byte
		if err := DecodeBatch(rebuilt, func(fr []byte) error {
			again = append(again, append([]byte(nil), fr...))
			return nil
		}); err != nil {
			t.Fatalf("rebuilt container does not decode: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("frame count changed across round trip: %d != %d", len(again), len(got))
		}
		for i := range got {
			if !bytes.Equal(again[i], got[i]) {
				t.Fatalf("frame %d changed across round trip", i)
			}
		}
	})
}
