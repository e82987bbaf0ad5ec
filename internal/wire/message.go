// Package wire implements the lightweight UDP messaging used between
// front-end web applications and service brokers. The paper's prototype has
// "the brokers and the front-end Web server exchange request and response
// messages through lightweight UDP" (§V-B); this package provides the framed
// message codec, a request/response client with retransmission, and a
// datagram server that demultiplexes requests to a handler.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"servicebroker/internal/qos"
)

// MsgType distinguishes requests from responses.
type MsgType uint8

const (
	// TypeRequest is a broker-bound query message.
	TypeRequest MsgType = iota + 1
	// TypeResponse is a broker reply.
	TypeResponse
)

// Status codes carried by responses.
type Status uint8

const (
	// StatusOK marks a successful full- or cached-fidelity response.
	StatusOK Status = iota + 1
	// StatusDropped marks a request shed by the broker's QoS policy; the
	// payload carries the adaptive (low-fidelity) message.
	StatusDropped
	// StatusError marks a backend or broker failure; the payload carries
	// the error text.
	StatusError
	// StatusShed marks a request shed by overload control (adaptive limit
	// exceeded, sojourn budget expired, or broker draining) rather than by
	// QoS policy: the condition is transient and the response usually
	// carries a retry-after hint.
	StatusShed
)

// String names the status code.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDropped:
		return "dropped"
	case StatusError:
		return "error"
	case StatusShed:
		return "shed"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Message is one datagram exchanged between an application and a broker.
type Message struct {
	Type MsgType
	// ID correlates a response with its request. Assigned by the client.
	ID uint64
	// Service names the broker-managed backend service ("db", "dir", ...).
	Service string
	// Class is the request's QoS class (requests only).
	Class qos.Class
	// TxnID tags the enclosing multi-server transaction; empty when the
	// request is not transactional (paper §III, transaction integrity).
	TxnID string
	// TxnStep is the 1-based step within the transaction; later steps get
	// escalated priority at the broker.
	TxnStep uint16
	// Fidelity grades a response (responses only).
	Fidelity qos.Fidelity
	// Status is the response disposition (responses only).
	Status Status
	// Flags carries request options (FlagNoCache). On the wire the codec
	// keeps its presence bits in the same byte: Encode derives them from the
	// fields below and Decode clears them, so callers neither see nor set
	// them.
	Flags uint8
	// TraceID propagates the end-to-end request trace across the wire
	// (package trace assigns it at the front end). Zero means untraced. The
	// field is a raw uint64 rather than trace.ID to keep the codec
	// dependency-free.
	TraceID uint64
	// Spans carries the broker-side trace spans home on a response
	// (responses only).
	Spans []Span
	// RetryAfterMs is the broker's backpressure hint on shed responses: the
	// client should wait this many milliseconds before retrying. Zero means
	// no hint.
	RetryAfterMs uint32
	// BrokerID identifies the gateway that produced a response (responses
	// only, normally its UDP listen address) so a frontend pool that failed
	// over can stitch span exports from several brokers into one trace.
	BrokerID string
	// IdemKey is the per-access idempotency key of a mutating transactional
	// request (requests only): together with TxnID and TxnStep it names one
	// logical effect, so a broker that sees the same triple again — a wire
	// retransmission or a pool failover re-send — answers with the recorded
	// first outcome instead of re-executing. Empty means the access carries
	// no idempotency protection.
	IdemKey string
	// Payload is the service-specific query or result body.
	Payload []byte
}

// Span is one broker-recorded trace stage shipped back on a response frame so
// the caller's trace collector can merge it into the end-to-end tree. Times
// are Unix nanoseconds; the mirror of trace.Span without the import cycle.
type Span struct {
	Stage string
	Note  string
	Start int64
	End   int64
}

// FlagNoCache asks the broker to bypass its result cache for this request.
const FlagNoCache uint8 = 1 << 0

// Presence bits share the header's flags byte with the request options. Each
// announces one optional block. The encoder sets a bit exactly when the
// block's field is non-zero and the decoder rejects a frame whose bits and
// blocks disagree, so every message has one encoding.
const (
	hasTraceID uint8 = 1 << (iota + 1)
	hasSpans
	hasRetryAfter
	hasBrokerID
	hasIdemKey
	presenceMask = hasTraceID | hasSpans | hasRetryAfter | hasBrokerID | hasIdemKey
)

const (
	magic0 = 'S'
	magic1 = 'B'
	// codecVersion names the one frame layout; a datagram carries exactly
	// one frame. There is no compatibility across versions: every peer
	// is built from this repository, so a datagram with any other version
	// byte is ErrBadFrame.
	codecVersion = 7
	// headerSize is the fixed-size prefix before variable-length fields; the
	// flags byte is its last.
	headerSize = 2 + 1 + 1 + 8 + 1 + 2 + 1 + 1 + 1
	// MaxFrame bounds an encoded message so it fits in a UDP datagram.
	MaxFrame = 60 * 1024
	// maxStringLen bounds each variable-length string field.
	maxStringLen = 1024
	// MaxSpans bounds the span block; gateways truncate rather than fail
	// when a trace somehow exceeds it.
	MaxSpans = 64
)

// Frame layout (all integers big-endian; a block in braces is present exactly
// when its presence bit is set in flags):
//
//	magic[2] version[1] type[1] id[8] class[1] txnStep[2] fidelity[1] status[1]
//	flags[1] {traceID[8]} serviceLen[2] service[...] txnIDLen[2] txnID[...]
//	payloadLen[4] payload[...]
//	{spanCount[2] (stageLen[2] stage[...] noteLen[2] note[...] start[8] end[8])*}
//	{retryAfterMs[4]} {brokerIDLen[2] brokerID[...]} {idemKeyLen[2] idemKey[...]}

// Encoding and decoding errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrBadFrame      = errors.New("wire: malformed frame")
)

// presence returns the presence bits m's optional fields call for.
func (m *Message) presence() uint8 {
	var p uint8
	if m.TraceID != 0 {
		p |= hasTraceID
	}
	if len(m.Spans) > 0 {
		p |= hasSpans
	}
	if m.RetryAfterMs != 0 {
		p |= hasRetryAfter
	}
	if m.BrokerID != "" {
		p |= hasBrokerID
	}
	if m.IdemKey != "" {
		p |= hasIdemKey
	}
	return p
}

// Encode serializes m into a datagram-sized frame.
func Encode(m *Message) ([]byte, error) {
	return AppendEncode(nil, m)
}

// AppendEncode serializes m exactly as Encode and appends the frame to dst,
// returning the extended slice. When dst has enough spare capacity the call
// performs no allocation — the hot-path contract the client's pooled send
// buffers rely on. dst's existing contents are preserved; the frame occupies
// the appended tail.
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	if max(len(m.Service), len(m.TxnID), len(m.BrokerID), len(m.IdemKey)) > maxStringLen {
		return nil, fmt.Errorf("%w: service name %d, txn id %d, broker id %d, idempotency key %d bytes, limit %d each",
			ErrFrameTooLarge, len(m.Service), len(m.TxnID), len(m.BrokerID), len(m.IdemKey), maxStringLen)
	}
	if len(m.Spans) > MaxSpans {
		return nil, fmt.Errorf("%w: %d spans", ErrFrameTooLarge, len(m.Spans))
	}
	present := m.presence()
	total := headerSize + 2 + len(m.Service) + 2 + len(m.TxnID) + 4 + len(m.Payload)
	if present&hasTraceID != 0 {
		total += 8
	}
	if present&hasSpans != 0 {
		total += 2
		for _, sp := range m.Spans {
			if len(sp.Stage) > maxStringLen || len(sp.Note) > maxStringLen {
				return nil, fmt.Errorf("%w: span stage %d bytes, note %d bytes", ErrFrameTooLarge, len(sp.Stage), len(sp.Note))
			}
			total += 2 + len(sp.Stage) + 2 + len(sp.Note) + 8 + 8
		}
	}
	if present&hasRetryAfter != 0 {
		total += 4
	}
	if present&hasBrokerID != 0 {
		total += 2 + len(m.BrokerID)
	}
	if present&hasIdemKey != 0 {
		total += 2 + len(m.IdemKey)
	}
	if total > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, total)
	}
	// Reserve the full frame up front so the appends below never reallocate;
	// a dst with spare capacity (a pooled buffer) makes this a no-op.
	buf := dst
	if cap(buf)-len(buf) < total {
		grown := make([]byte, len(buf), len(buf)+total)
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, magic0, magic1, codecVersion, byte(m.Type))
	buf = binary.BigEndian.AppendUint64(buf, m.ID)
	buf = append(buf, byte(m.Class))
	buf = binary.BigEndian.AppendUint16(buf, m.TxnStep)
	buf = append(buf, byte(m.Fidelity), byte(m.Status), m.Flags&^presenceMask|present)
	if present&hasTraceID != 0 {
		buf = binary.BigEndian.AppendUint64(buf, m.TraceID)
	}
	buf = appendString(buf, m.Service)
	buf = appendString(buf, m.TxnID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	if present&hasSpans != 0 {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Spans)))
		for _, sp := range m.Spans {
			buf = appendString(buf, sp.Stage)
			buf = appendString(buf, sp.Note)
			buf = binary.BigEndian.AppendUint64(buf, uint64(sp.Start))
			buf = binary.BigEndian.AppendUint64(buf, uint64(sp.End))
		}
	}
	if present&hasRetryAfter != 0 {
		buf = binary.BigEndian.AppendUint32(buf, m.RetryAfterMs)
	}
	if present&hasBrokerID != 0 {
		buf = appendString(buf, m.BrokerID)
	}
	if present&hasIdemKey != 0 {
		buf = appendString(buf, m.IdemKey)
	}
	return buf, nil
}

// Decode parses a frame produced by Encode. The returned message's Payload
// is a copy, so the caller may reuse buf.
func Decode(buf []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a frame produced by Encode into m, reusing m's Payload
// and Spans backing arrays when they have capacity — the decode-side mirror
// of AppendEncode. With a recycled Message (see GetMessage) the steady-state
// server request path decodes without allocating: the payload is copied into
// the retained buffer and the service name is interned. On error m is left
// in an unspecified state. Any previous contents of m are discarded.
func DecodeInto(m *Message, buf []byte) error {
	m.Reset()
	if len(buf) < headerSize {
		return fmt.Errorf("%w: %d bytes", ErrBadFrame, len(buf))
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if buf[2] != codecVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFrame, buf[2])
	}
	m.Type = MsgType(buf[3])
	m.ID = binary.BigEndian.Uint64(buf[4:12])
	m.Class = qos.Class(buf[12])
	m.TxnStep = binary.BigEndian.Uint16(buf[13:15])
	m.Fidelity = qos.Fidelity(buf[15])
	m.Status = Status(buf[16])
	present := buf[17] & presenceMask
	m.Flags = buf[17] &^ presenceMask
	if m.Type != TypeRequest && m.Type != TypeResponse {
		return fmt.Errorf("%w: unknown type %d", ErrBadFrame, buf[3])
	}
	rest := buf[headerSize:]
	if present&hasTraceID != 0 {
		if len(rest) < 8 {
			return fmt.Errorf("%w: truncated trace id", ErrBadFrame)
		}
		m.TraceID = binary.BigEndian.Uint64(rest)
		rest = rest[8:]
	}
	// Service names are a small fixed vocabulary, so intern rather than
	// allocate a fresh string per frame.
	service, rest, err := readBytes(rest)
	if err != nil {
		return err
	}
	m.Service = internService(service)
	if m.TxnID, rest, err = readString(rest); err != nil {
		return err
	}
	if len(rest) < 4 {
		return fmt.Errorf("%w: truncated payload length", ErrBadFrame)
	}
	n := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint32(len(rest)) < n {
		return fmt.Errorf("%w: payload length %d, have %d", ErrBadFrame, n, len(rest))
	}
	if n > 0 {
		m.Payload = append(m.Payload, rest[:n]...)
	}
	rest = rest[n:]
	if present&hasSpans != 0 {
		if m.Spans, rest, err = readSpans(m.Spans, rest); err != nil {
			return err
		}
	}
	if present&hasRetryAfter != 0 {
		if len(rest) < 4 {
			return fmt.Errorf("%w: truncated retry-after", ErrBadFrame)
		}
		m.RetryAfterMs = binary.BigEndian.Uint32(rest)
		rest = rest[4:]
	}
	if present&hasBrokerID != 0 {
		if m.BrokerID, rest, err = readString(rest); err != nil {
			return err
		}
	}
	if present&hasIdemKey != 0 {
		if m.IdemKey, rest, err = readString(rest); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(rest))
	}
	if m.presence() != present {
		return fmt.Errorf("%w: presence bits %#x announce an empty block", ErrBadFrame, present)
	}
	return nil
}

// Reset clears m for reuse, retaining the Payload and Spans backing arrays
// so a recycled message decodes without reallocating them.
func (m *Message) Reset() {
	payload := m.Payload[:0]
	spans := m.Spans[:0]
	*m = Message{Payload: payload, Spans: spans}
}

// msgPool recycles Messages for the server request path: every datagram
// decodes into a pooled Message instead of allocating one, and the message
// returns to the pool after the handler's response is encoded.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// GetMessage checks a cleared Message out of the free list. Pair with
// PutMessage once every field (including Payload) is dead.
func GetMessage() *Message { return msgPool.Get().(*Message) }

// PutMessage resets m and returns it to the free list. The caller must not
// retain m, m.Payload, or m.Spans afterwards.
func PutMessage(m *Message) {
	if m == nil {
		return
	}
	m.Reset()
	msgPool.Put(m)
}

// internLimit bounds the service intern table; frames beyond the limit fall
// back to a per-frame allocation so hostile traffic cannot grow the table
// without bound.
const internLimit = 4096

var (
	internMu  sync.RWMutex
	internTab = make(map[string]string)
)

// internService returns a canonical string for a service-name byte slice.
// The read-path map lookup with a string(b) key compiles without allocating,
// so repeat services — the overwhelmingly common case — cost zero allocs.
func internService(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	internMu.RLock()
	s, ok := internTab[string(b)]
	internMu.RUnlock()
	if ok {
		return s
	}
	internMu.Lock()
	if s, ok = internTab[string(b)]; !ok {
		s = string(b)
		if len(internTab) < internLimit {
			internTab[s] = s
		}
	}
	internMu.Unlock()
	return s
}

// readSpans decodes a span block, appending to dst (which may be a recycled
// message's retained spans array).
func readSpans(dst []Span, buf []byte) ([]Span, []byte, error) {
	if len(buf) < 2 {
		return nil, nil, fmt.Errorf("%w: truncated span count", ErrBadFrame)
	}
	count := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if count > MaxSpans {
		return nil, nil, fmt.Errorf("%w: span count %d", ErrBadFrame, count)
	}
	spans := dst
	if count > 0 && spans == nil {
		spans = make([]Span, 0, count)
	}
	for i := 0; i < count; i++ {
		stage, rest, err := readString(buf)
		if err != nil {
			return nil, nil, err
		}
		note, rest, err := readString(rest)
		if err != nil {
			return nil, nil, err
		}
		if len(rest) < 16 {
			return nil, nil, fmt.Errorf("%w: truncated span times", ErrBadFrame)
		}
		spans = append(spans, Span{
			Stage: stage,
			Note:  note,
			Start: int64(binary.BigEndian.Uint64(rest[:8])),
			End:   int64(binary.BigEndian.Uint64(rest[8:16])),
		})
		buf = rest[16:]
	}
	return spans, buf, nil
}

// appendString encodes s with a 2-byte length prefix; the caller has checked
// it against maxStringLen.
func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// readBytes decodes a 2-byte length-prefixed field, returning it as a slice
// of buf.
func readBytes(buf []byte) (field, rest []byte, err error) {
	if len(buf) < 2 {
		return nil, nil, fmt.Errorf("%w: truncated string length", ErrBadFrame)
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if n > maxStringLen {
		return nil, nil, fmt.Errorf("%w: string length %d", ErrBadFrame, n)
	}
	if len(buf) < n {
		return nil, nil, fmt.Errorf("%w: string length %d, have %d", ErrBadFrame, n, len(buf))
	}
	return buf[:n], buf[n:], nil
}

// readString decodes a 2-byte length-prefixed string.
func readString(buf []byte) (string, []byte, error) {
	field, rest, err := readBytes(buf)
	return string(field), rest, err
}
