package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"servicebroker/internal/qos"
)

// optionalBlocks lists the optional blocks in wire order: the presence bit,
// the encoded size of the value withBlocks sets, and the field that carries
// it.
var optionalBlocks = []struct {
	name string
	bit  uint8
	size int
	set  func(*Message)
}{
	{"trace", hasTraceID, 8, func(m *Message) { m.TraceID = 0xdeadbeefcafef00d }},
	{"spans", hasSpans, 2 + (2 + 5 + 2 + 3 + 16) + (2 + 7 + 2 + 0 + 16), func(m *Message) {
		m.Spans = []Span{
			{Stage: "queue", Note: "w=2", Start: 10, End: 20},
			{Stage: "backend", Start: 20, End: 400},
		}
	}},
	{"retry", hasRetryAfter, 4, func(m *Message) { m.RetryAfterMs = 250 }},
	{"broker", hasBrokerID, 2 + 14, func(m *Message) { m.BrokerID = "127.0.0.1:9001" }},
	{"idem", hasIdemKey, 2 + 12, func(m *Message) { m.IdemKey = "hold:card-42" }},
}

// baseSize is the encoded size of withBlocks(0): header, "db", "t-1", and an
// 8-byte payload.
const baseSize = headerSize + (2 + 2) + (2 + 3) + (4 + 8)

// withBlocks returns a message with every mandatory field set and exactly the
// optional blocks named by bits.
func withBlocks(bits uint8) *Message {
	m := &Message{
		Type: TypeResponse, ID: 77, Service: "db", Class: qos.Class2,
		TxnID: "t-1", TxnStep: 2, Fidelity: qos.FidelityCached, Status: StatusShed,
		Flags: FlagNoCache, Payload: []byte("SELECT 1"),
	}
	for _, b := range optionalBlocks {
		if bits&b.bit != 0 {
			b.set(m)
		}
	}
	return m
}

// blockSubsets returns every combination of presence bits.
func blockSubsets() []uint8 {
	var subsets []uint8
	for bits := 0; bits <= int(presenceMask); bits++ {
		if uint8(bits)&^presenceMask == 0 {
			subsets = append(subsets, uint8(bits))
		}
	}
	return subsets
}

func blockNames(bits uint8) string {
	var names []string
	for _, b := range optionalBlocks {
		if bits&b.bit != 0 {
			names = append(names, b.name)
		}
	}
	if names == nil {
		return "none"
	}
	return strings.Join(names, "+")
}

// TestCodecEverySubset runs the codec's whole contract over all 32 subsets of
// the optional blocks: the frame carries exactly the announced blocks and
// nothing else, decodes to the same message, re-encodes to the same bytes,
// fails cleanly when cut at any byte or extended by one, and refuses every
// field over its bound.
func TestCodecEverySubset(t *testing.T) {
	for _, bits := range blockSubsets() {
		t.Run(blockNames(bits), func(t *testing.T) {
			m := withBlocks(bits)
			frame, err := Encode(m)
			if err != nil {
				t.Fatal(err)
			}

			wantSize := baseSize
			for _, b := range optionalBlocks {
				if bits&b.bit != 0 {
					wantSize += b.size
				}
			}
			if len(frame) != wantSize {
				t.Errorf("frame is %d bytes, want %d", len(frame), wantSize)
			}
			if frame[2] != codecVersion {
				t.Errorf("version byte = %d, want %d", frame[2], codecVersion)
			}
			if got := frame[headerSize-1]; got != FlagNoCache|bits {
				t.Errorf("flags byte = %#x, want %#x", got, FlagNoCache|bits)
			}

			got, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
			}
			if again, err := Encode(got); err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("re-encode differs (err %v)", err)
			}

			for cut := 0; cut < len(frame); cut++ {
				if _, err := Decode(frame[:cut]); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("truncation at %d/%d: err = %v, want ErrBadFrame", cut, len(frame), err)
				}
			}
			if _, err := Decode(append(frame[:len(frame):len(frame)], 0)); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("trailing byte: err = %v, want ErrBadFrame", err)
			}

			long := strings.Repeat("x", maxStringLen+1)
			oversize := map[string]func(*Message){
				"service": func(m *Message) { m.Service = long },
				"txn id":  func(m *Message) { m.TxnID = long },
				"payload": func(m *Message) { m.Payload = make([]byte, MaxFrame) },
			}
			if bits&hasSpans != 0 {
				oversize["span stage"] = func(m *Message) { m.Spans[0].Stage = long }
				oversize["span note"] = func(m *Message) { m.Spans[1].Note = long }
				oversize["span count"] = func(m *Message) { m.Spans = make([]Span, MaxSpans+1) }
			}
			if bits&hasBrokerID != 0 {
				oversize["broker id"] = func(m *Message) { m.BrokerID = long }
			}
			if bits&hasIdemKey != 0 {
				oversize["idempotency key"] = func(m *Message) { m.IdemKey = long }
			}
			for name, grow := range oversize {
				big := withBlocks(bits)
				grow(big)
				if _, err := Encode(big); !errors.Is(err, ErrFrameTooLarge) {
					t.Errorf("oversize %s: err = %v, want ErrFrameTooLarge", name, err)
				}
			}
		})
	}
}

// Property: a message with any value in every field round-trips exactly and
// has one encoding. Zero and empty values are drawn often enough that every
// optional block is exercised both present and absent.
func TestRoundTripProperty(t *testing.T) {
	f := func(id, traceID uint64, class, fidelity, status uint8, noCache, response bool,
		step uint16, retry uint32, service, txn, broker, idem string,
		payload []byte, spans []Span, drop uint8) bool {
		m := &Message{
			Type: TypeRequest, ID: id, Service: service, Class: qos.Class(class),
			TxnID: txn, TxnStep: step, Fidelity: qos.Fidelity(fidelity), Status: Status(status),
			TraceID: traceID, Spans: spans, RetryAfterMs: retry, BrokerID: broker, IdemKey: idem,
			Payload: payload,
		}
		if response {
			m.Type = TypeResponse
		}
		if noCache {
			m.Flags = FlagNoCache
		}
		// quick rarely draws a zero on its own: clear a random subset.
		for i, clear := range []func(){
			func() { m.TraceID = 0 }, func() { m.Spans = nil }, func() { m.RetryAfterMs = 0 },
			func() { m.BrokerID = "" }, func() { m.IdemKey = "" },
		} {
			if drop&(1<<i) != 0 {
				clear()
			}
		}
		frame, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(frame)
		if err != nil {
			return false
		}
		again, err := Encode(got)
		return err == nil && bytes.Equal(again, frame) && sameMessage(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sameMessage compares two messages field by field, treating nil and empty
// Payload and Spans alike (Decode leaves an absent one nil).
func sameMessage(a, b *Message) bool {
	x, y := *a, *b
	x.Payload, y.Payload, x.Spans, y.Spans = nil, nil, nil, nil
	return reflect.DeepEqual(x, y) && bytes.Equal(a.Payload, b.Payload) &&
		len(a.Spans) == len(b.Spans) && (len(a.Spans) == 0 || reflect.DeepEqual(a.Spans, b.Spans))
}

// TestFrameSizes is the source for the two sizes the docs quote (36 B and
// 55 B): the untagged request is header plus lengths and nothing else, and
// the transaction-tagged one adds only its own two strings.
func TestFrameSizes(t *testing.T) {
	untagged := &Message{Type: TypeRequest, ID: 7, Service: "db", Class: 2, Payload: []byte("SELECT 1")}
	tagged := &Message{Type: TypeRequest, ID: 7, Service: "db", Class: 2, Payload: []byte("SELECT 1"),
		TxnID: "purchase-42", TxnStep: 3, IdemKey: "commit"}
	for _, c := range []struct {
		name string
		m    *Message
		want int
	}{
		{"untagged", untagged, 36},
		{"tagged", tagged, 36 + len("purchase-42") + 2 + len("commit")}, // 55, under the 71 of the six-layout codec
	} {
		frame, err := Encode(c.m)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != c.want {
			t.Errorf("%s frame is %d bytes, want %d", c.name, len(frame), c.want)
		}
	}
}

// capturedV1Frame is a request as the six-layout codec encoded it (version
// byte 1): ID 77, "db", class 1, txn "t-1" step 2, FlagNoCache, "SELECT 1".
// Its layout is the current untagged one; only the version byte differs.
const capturedV1Frame = "53420101000000000000004d010002000001000264620003742d310000000853454c4543542031"

// TestDecodeRejectsForeignVersion is the compatibility policy: none. A frame
// with any version byte but the current one is ErrBadFrame.
func TestDecodeRejectsForeignVersion(t *testing.T) {
	v1, err := hex.DecodeString(capturedV1Frame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(v1); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("captured v1 frame: err = %v, want ErrBadFrame", err)
	}
	v1[2] = codecVersion
	if m, err := Decode(v1); err != nil || m.ID != 77 || string(m.Payload) != "SELECT 1" {
		t.Fatalf("captured frame with the current version byte: %+v, %v", m, err)
	}

	frame := mustEncode(t, withBlocks(presenceMask))
	for v := 0; v < 256; v++ {
		if v == codecVersion {
			continue
		}
		frame[2] = byte(v)
		if _, err := Decode(frame); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("frame version %d: err = %v, want ErrBadFrame", v, err)
		}
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

// TestDecodeRejectsEmptyAnnouncedBlock: a presence bit over a zero value is
// a second encoding of the same message, so Decode refuses it.
func TestDecodeRejectsEmptyAnnouncedBlock(t *testing.T) {
	empty := map[uint8][]byte{
		hasTraceID:    make([]byte, 8),
		hasSpans:      make([]byte, 2),
		hasRetryAfter: make([]byte, 4),
		hasBrokerID:   make([]byte, 2),
		hasIdemKey:    make([]byte, 2),
	}
	for _, b := range optionalBlocks {
		m := &Message{Type: TypeRequest, ID: 1}
		frame := mustEncode(t, m)
		frame[headerSize-1] |= b.bit
		if b.bit == hasTraceID {
			frame = append(frame[:headerSize:headerSize], append(empty[b.bit], frame[headerSize:]...)...)
		} else {
			frame = append(frame, empty[b.bit]...)
		}
		if _, err := Decode(frame); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", b.name, err)
		}
	}
}

// FuzzDecode drives the codec with arbitrary frames: Decode must never
// panic, and any frame it accepts must re-encode to the same bytes.
func FuzzDecode(f *testing.F) {
	for _, bits := range blockSubsets() {
		frame, err := Encode(withBlocks(bits))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	if v1, err := hex.DecodeString(capturedV1Frame); err == nil {
		f.Add(v1)
	}
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, codecVersion})

	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Decode(frame)
		if err != nil || len(frame) > MaxFrame {
			// Decode tolerates oversized input (the socket layer already
			// bounds datagrams); Encode would rightly refuse to rebuild it.
			return
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(re, frame) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x\n msg %+v", frame, re, m)
		}
	})
}
