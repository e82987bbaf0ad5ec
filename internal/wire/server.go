package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Handler processes one request message and returns the response. The
// request's ID is echoed onto the returned response automatically; handlers
// may leave it zero. A nil return sends a StatusError response.
//
// The request message and everything it references (Payload, Spans) belong
// to the server and are recycled as soon as the handler returns: a handler
// that retains request data past its return must copy it. A handler may
// return req itself, mutated in place into the response — the server
// recognizes the aliasing and recycles the message exactly once.
type Handler func(ctx context.Context, from net.Addr, req *Message) *Message

// IOStats counts the datagrams crossing one client. Every datagram carries
// exactly one frame.
type IOStats struct {
	DatagramsIn  uint64
	DatagramsOut uint64
}

// dedupKey names one request for retransmission suppression: the sender plus
// the client-assigned request ID. For UDP senders — every real deployment —
// the key is built from the comparable netip.AddrPort value without
// allocating; other PacketConn address types fall back to the String form.
type dedupKey struct {
	ap   netip.AddrPort
	addr string
	id   uint64
}

func makeDedupKey(from net.Addr, id uint64) dedupKey {
	if ua, ok := from.(*net.UDPAddr); ok {
		return dedupKey{ap: ua.AddrPort(), id: id}
	}
	return dedupKey{addr: from.String(), id: id}
}

// dedupSlot is one ring entry: the key it answers for and the encoded
// response, kept in a buffer that is overwritten in place when the ring
// wraps so the steady-state insert allocates nothing. A buffer grown past
// dedupKeepCap is dropped on reuse instead, so one large reply cannot pin
// its size in the slot for the life of the server.
type dedupSlot struct {
	key  dedupKey
	used bool
	buf  []byte
}

// Server receives request datagrams, invokes a handler, and sends the
// response back to the originating address. Duplicate requests (client
// retransmissions) are answered from a small response cache without
// re-invoking the handler, giving at-most-once handler execution for the
// idempotent window.
type Server struct {
	conn    net.PacketConn
	handler Handler

	// The dedup cache is a fixed ring of dedupWindow slots indexed by a map:
	// insertion overwrites the oldest slot in place (reusing its buffer), so
	// neither the ring nor its backing array grows, and lookups never build
	// a string key on the UDP path.
	mu     sync.Mutex
	index  map[dedupKey]int
	slots  []dedupSlot
	next   int
	closed bool

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// dedupWindow bounds the retransmission-suppression cache.
const dedupWindow = 4096

// dedupKeepCap is the largest slot buffer the ring reuses. It sits above
// every reply the repository's benchmark workloads produce (the largest, a
// mixed_rw range read, encodes to 1,332 bytes), so their steady state still
// allocates nothing.
const dedupKeepCap = 4096

// NewServer starts a datagram server on addr ("127.0.0.1:0" for an ephemeral
// port). Close must be called to release the socket and stop the serving
// goroutines.
func NewServer(addr string, handler Handler) (*Server, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s, err := NewServerConn(conn, handler)
	if err != nil {
		conn.Close()
	}
	return s, err
}

// NewServerConn starts a datagram server on an already-bound PacketConn.
// The chaos harness uses this to interpose netsim.PacketConn fault gates
// between the server and the real socket; Close closes pc.
func NewServerConn(pc net.PacketConn, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("wire: nil handler")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		conn:    pc,
		handler: handler,
		index:   make(map[dedupKey]int),
		cancel:  cancel,
	}
	s.wg.Add(1)
	go s.serve(ctx)
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

// Close stops the server and waits for in-flight handlers to finish. The
// socket stays open until they do: a handler that is mid-response gets to
// send it, so requests accepted before Close are answered, not lost.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	// Expire the read so the receive loop stops accepting without closing
	// the socket out from under in-flight handlers' WriteTo calls.
	_ = s.conn.SetReadDeadline(time.Now())
	s.wg.Wait()
	return s.conn.Close()
}

// serve is the receive loop. Each datagram is handled on its own goroutine
// so a slow backend does not head-of-line-block the socket. Receive buffers
// come from the frame pool instead of being copied per datagram: DecodeInto
// copies everything it keeps, so the frame never escapes handleDatagram and
// the buffer can go straight back to the pool.
func (s *Server) serve(ctx context.Context) {
	defer s.wg.Done()
	for {
		bp := getBuf()
		n, from, err := s.conn.ReadFrom(*bp)
		if err != nil {
			putBuf(bp)
			return // socket closed
		}
		s.wg.Add(1)
		go func(bp *[]byte, n int, from net.Addr) {
			defer s.wg.Done()
			defer putBuf(bp)
			s.handleDatagram(ctx, (*bp)[:n], from)
		}(bp, n, from)
	}
}

// handleDatagram answers one datagram, which must be exactly one request
// frame; anything else is garbage.
func (s *Server) handleDatagram(ctx context.Context, data []byte, from net.Addr) {
	bp := s.processFrame(ctx, data, from)
	if bp == nil {
		return // drop garbage silently, as a datagram service must
	}
	_, _ = s.conn.WriteTo(*bp, from)
	putBuf(bp)
}

// processFrame decodes one request frame, answers duplicates from the dedup
// ring, and otherwise runs the handler and encodes its response. The encoded
// response is returned in a pooled buffer the caller must send and putBuf;
// nil means the frame was garbage and produced no reply. The path from
// decode through dedup to encode allocates nothing in steady state: the
// request comes from the Message free list, the dedup key is a comparable
// value, and both the ring slot and the reply buffer are recycled.
func (s *Server) processFrame(ctx context.Context, frame []byte, from net.Addr) *[]byte {
	req := GetMessage()
	if err := DecodeInto(req, frame); err != nil || req.Type != TypeRequest {
		PutMessage(req)
		return nil
	}

	key := makeDedupKey(from, req.ID)
	s.mu.Lock()
	if i, ok := s.index[key]; ok {
		bp := getBuf()
		*bp = append((*bp)[:0], s.slots[i].buf...)
		s.mu.Unlock()
		PutMessage(req)
		return bp
	}
	s.mu.Unlock()

	id := req.ID
	resp := s.handler(ctx, from, req)
	if resp == nil {
		resp = &Message{Status: StatusError, Payload: []byte("wire: handler returned no response")}
	}
	resp.Type = TypeResponse
	resp.ID = id
	bp := getBuf()
	out, err := AppendEncode((*bp)[:0], resp)
	if err != nil && len(resp.Spans) > 0 {
		// Span export is best-effort: an oversized span block must not turn a
		// good response into an error.
		resp.Spans = resp.Spans[:0]
		out, err = AppendEncode((*bp)[:0], resp)
	}
	if err != nil {
		resp = &Message{Type: TypeResponse, ID: id, Status: StatusError, Payload: []byte(err.Error())}
		out, _ = AppendEncode((*bp)[:0], resp)
	}
	// The response may alias the request's payload (echo handlers, in-place
	// mutation), so the request is recycled only now, after encoding.
	PutMessage(req)

	s.insertDedup(key, out)
	*bp = out
	return bp
}

// insertDedup records an encoded response in the ring, evicting the oldest
// entry in place once the window is full. Concurrent executions of the same
// key keep the first recorded response, matching the map-based predecessor.
func (s *Server) insertDedup(key dedupKey, out []byte) {
	s.mu.Lock()
	if _, dup := s.index[key]; !dup {
		if len(s.slots) < dedupWindow {
			s.slots = append(s.slots, dedupSlot{key: key, used: true, buf: append([]byte(nil), out...)})
			s.index[key] = len(s.slots) - 1
		} else {
			slot := &s.slots[s.next]
			if slot.used {
				delete(s.index, slot.key)
			}
			slot.key = key
			slot.used = true
			if cap(slot.buf) > dedupKeepCap {
				slot.buf = nil
			}
			slot.buf = append(slot.buf[:0], out...)
			s.index[key] = s.next
			s.next++
			if s.next == dedupWindow {
				s.next = 0
			}
		}
	}
	s.mu.Unlock()
}

// Client issues requests to a wire server and matches responses by ID,
// retransmitting on loss. A single UDP socket is shared by all calls; a
// reader goroutine demultiplexes responses to waiting callers.
type Client struct {
	conn net.Conn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Message
	closed  bool

	retransmit time.Duration
	attempts   int

	datagramsOut atomic.Uint64
	datagramsIn  atomic.Uint64

	wg    sync.WaitGroup // reader goroutine
	calls sync.WaitGroup // in-flight Call invocations
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetransmit sets the per-attempt timeout before a request datagram is
// re-sent (default 200 ms).
func WithRetransmit(d time.Duration) ClientOption {
	return func(c *Client) { c.retransmit = d }
}

// WithAttempts sets the total number of transmissions per call (default 3).
func WithAttempts(n int) ClientOption {
	return func(c *Client) { c.attempts = n }
}

// Dial connects a client to the wire server at addr.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:       conn,
		pending:    make(map[uint64]chan *Message),
		retransmit: 200 * time.Millisecond,
		attempts:   3,
	}
	for _, o := range opts {
		o(c)
	}
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// IOStats returns the client's datagram counters.
func (c *Client) IOStats() IOStats {
	return IOStats{DatagramsIn: c.datagramsIn.Load(), DatagramsOut: c.datagramsOut.Load()}
}

// Close fails outstanding calls with ErrClientClosed, waits for them to
// return, then releases the socket and stops the reader goroutine. Waiting
// before closing the socket keeps teardown from racing active sends (a Call
// mid-Write would otherwise see a closed-connection error instead).
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- nil // closed sentinel; buffered and sole sender under mu
	}
	c.mu.Unlock()
	c.calls.Wait()
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

// ErrClientClosed is returned by Call after Close.
var ErrClientClosed = errors.New("wire: client closed")

// ErrTimeout is returned by Call when every transmission attempt expires
// without a response.
var ErrTimeout = errors.New("wire: request timed out")

func (c *Client) readLoop() {
	defer c.wg.Done()
	buf := make([]byte, MaxFrame)
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient read errors must not kill the reader. On Linux a
			// connected UDP socket surfaces ICMP port-unreachable as
			// ECONNREFUSED on Read after the peer dies; one such error per
			// lost datagram is expected while a broker is down, and the same
			// socket works again once the peer rebinds its port. Exiting here
			// would leave every future Call waiting on a response nobody
			// reads.
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		c.datagramsIn.Add(1)
		c.dispatch(buf[:n])
	}
}

// dispatch decodes one response frame and delivers it to the waiting Call.
// The send happens under mu while the pending entry exists: the channel is
// buffered and each entry sees at most one send in its lifetime, so the
// send cannot block and a recycled channel is always drained-or-empty.
func (c *Client) dispatch(frame []byte) {
	m, err := Decode(frame)
	if err != nil || m.Type != TypeResponse {
		return
	}
	c.mu.Lock()
	if ch, ok := c.pending[m.ID]; ok {
		delete(c.pending, m.ID)
		ch <- m
	}
	c.mu.Unlock()
}

// respChanPool recycles the per-Call response channels. A channel is only
// returned after being drained, so a recycled channel is always empty.
var respChanPool = sync.Pool{New: func() any { return make(chan *Message, 1) }}

// reclaimChan drains at most one stranded value and pools the channel.
func reclaimChan(ch chan *Message) {
	select {
	case <-ch:
	default:
	}
	respChanPool.Put(ch)
}

// timerPool recycles retransmit timers across Calls. Pooled timers are
// always stopped with their channel drained, so Reset is safe immediately.
var timerPool sync.Pool

func getTimer() *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		return t
	}
	t := time.NewTimer(time.Hour)
	stopTimer(t)
	return t
}

// stopTimer stops a running timer and consumes an in-flight fire. Only
// sound when the caller is the sole reader of t.C and has not received from
// it since the last Reset — then Stop()==false implies exactly one value is
// (or will be) in the channel, so the blocking drain is bounded.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}

func putTimer(t *time.Timer) { timerPool.Put(t) }

// Call sends req and waits for the matching response, retransmitting up to
// the configured number of attempts. The req.ID field is assigned by the
// client. Call honors ctx cancellation.
func (c *Client) Call(ctx context.Context, req *Message) (*Message, error) {
	req.Type = TypeRequest

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.calls.Add(1) // under mu with closed checked, so Close cannot miss us
	defer c.calls.Done()
	c.nextID++
	req.ID = c.nextID
	ch := respChanPool.Get().(chan *Message)
	c.pending[req.ID] = ch
	c.mu.Unlock()

	// Encode into a pooled buffer: the frame is only referenced for the
	// duration of the Call's send attempts, so the buffer recycles and the
	// steady-state send path allocates nothing.
	bp := getBuf()
	defer putBuf(bp)
	frame, err := AppendEncode((*bp)[:0], req)
	if err != nil {
		c.abandon(req.ID, ch)
		return nil, err
	}

	timer := getTimer()
	defer putTimer(timer)
	for attempt := 0; attempt < c.attempts; attempt++ {
		if _, err := c.conn.Write(frame); err != nil {
			c.abandon(req.ID, ch)
			return nil, fmt.Errorf("wire: send: %w", err)
		}
		c.datagramsOut.Add(1)
		timer.Reset(c.retransmit)
		select {
		case m := <-ch:
			stopTimer(timer)
			reclaimChan(ch)
			if m == nil {
				return nil, ErrClientClosed
			}
			return m, nil
		case <-ctx.Done():
			stopTimer(timer)
			c.abandon(req.ID, ch)
			return nil, ctx.Err()
		case <-timer.C:
			// retransmit
		}
	}
	c.abandon(req.ID, ch)
	return nil, fmt.Errorf("%w after %d attempts", ErrTimeout, c.attempts)
}

// abandon forgets a pending request and recycles its channel. Senders only
// send under mu while the entry exists, so once the entry is gone any sent
// value is already buffered and the drain in reclaimChan catches it.
func (c *Client) abandon(id uint64, ch chan *Message) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	reclaimChan(ch)
}
