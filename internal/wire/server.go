package wire

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
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

// peerKey names one client socket. For UDP senders — every real deployment —
// it is the comparable netip.AddrPort value, built without allocating; other
// PacketConn address types fall back to the String form.
type peerKey struct {
	ap   netip.AddrPort
	addr string
}

func makePeerKey(from net.Addr) peerKey {
	if ua, ok := from.(*net.UDPAddr); ok {
		return peerKey{ap: ua.AddrPort()}
	}
	return peerKey{addr: from.String()}
}

// peer is what the server remembers of one client socket: the incarnation in
// the upper half of its IDs, the highest ack it sent, and its requests at or
// above that ack by ID, each with its encoded reply (nil while it runs).
type peer struct {
	inc, ack uint64
	kept     []kept
}

type kept struct {
	id    uint64
	reply []byte
}

// find returns the index of id in p.kept, or where it would go.
func (p *peer) find(id uint64) (int, bool) {
	return slices.BinarySearchFunc(p.kept, id, func(e kept, id uint64) int { return cmp.Compare(e.id, id) })
}

// Server receives request datagrams, invokes a handler, and sends the
// response back to the originating address. A retransmitted request is
// answered from the first copy's kept reply instead of running again, so the
// handler runs at most once per request; each client's ack lets the server
// forget a reply once the client has it.
type Server struct {
	conn    net.PacketConn
	handler Handler

	mu     sync.Mutex
	peers  map[peerKey]*peer // only peers with something kept
	nkept  int               // entries over all peers, at most maxKept
	free   [][]byte          // reply buffers to reuse, at most maxFree
	closed bool

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// maxKept bounds the requests kept over all peers: a client that acks holds
// about one per call in flight, one that does not up to all. maxFree bounds
// the reply buffers kept for reuse, enough to refill after a stalled call.
const (
	maxKept    = 4096
	maxFree    = 256
	minKeptCap = 16 // a client's calls in flight in steady state fit in it
)

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
		peers:   make(map[peerKey]*peer),
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

// processFrame decodes one request frame, answers a duplicate from its kept
// reply, and otherwise runs the handler and encodes its response. The encoded
// response is returned in a pooled buffer the caller must send and putBuf;
// nil means no reply: garbage, a duplicate of a request still running, or one
// below its client's ack. Decode, dedup and encode allocate nothing in steady
// state: the request comes from the Message free list, the peer key is a
// comparable value, and reply buffers are reused.
func (s *Server) processFrame(ctx context.Context, frame []byte, from net.Addr) *[]byte {
	req := GetMessage()
	if err := DecodeInto(req, frame); err != nil || req.Type != TypeRequest {
		PutMessage(req)
		return nil
	}
	id := req.ID
	p, bp := s.admit(makePeerKey(from), id, req.Ack)
	if p == nil {
		PutMessage(req)
		return bp
	}

	resp := s.handler(ctx, from, req)
	if resp == nil {
		resp = &Message{Status: StatusError, Payload: []byte("wire: handler returned no response")}
	}
	resp.Type = TypeResponse
	resp.ID = id
	resp.Ack = 0
	bp = getBuf()
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

	s.keep(p, id, out)
	*bp = out
	return bp
}

// admit applies a request's ID and ack to its peer and says what to do with
// it: run it (p, where it is recorded first), answer it with a copy of its
// kept reply (bp), or drop it (neither) — below the ack, its client has the
// reply or gave up; a duplicate of one still running, the first will answer.
func (s *Server) admit(key peerKey, id, ack uint64) (p *peer, bp *[]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p = s.peers[key]
	if p == nil {
		p = &peer{inc: id >> 32}
		s.peers[key] = p
	} else if p.inc != id>>32 {
		// A new client on an earlier one's port: nothing kept answers it.
		s.drop(p, 0, len(p.kept))
		p.inc, p.ack = id>>32, 0
	}
	if ack > p.ack {
		p.ack = ack
		n, _ := p.find(ack)
		s.drop(p, 0, n)
	}
	if id < p.ack {
		if len(p.kept) == 0 {
			delete(s.peers, key)
		}
		return nil, nil
	}
	i, found := p.find(id)
	if found {
		if r := p.kept[i].reply; r != nil {
			bp = getBuf()
			*bp = append((*bp)[:0], r...)
		}
		return nil, bp
	}
	if s.nkept >= maxKept {
		s.evict(p)
		i, _ = p.find(id)
	}
	p.kept = slices.Insert(p.kept, i, kept{id: id})
	s.nkept++
	return p, nil
}

// keep fills in the reply of a request admit recorded in p, unless its entry
// went meanwhile (acknowledged, evicted, or p reset or left the table).
func (s *Server) keep(p *peer, id uint64, out []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := p.find(id); ok && p.kept[i].reply == nil {
		var buf []byte
		if n := len(s.free); n > 0 {
			buf, s.free[n-1], s.free = s.free[n-1][:0], nil, s.free[:n-1]
		}
		p.kept[i].reply = append(buf, out...)
	}
}

// drop removes p.kept[i:j], keeping their reply buffers for reuse. A slice
// at most a quarter full gives a burst's capacity back, down to minKeptCap.
func (s *Server) drop(p *peer, i, j int) {
	for _, e := range p.kept[i:j] {
		if e.reply != nil && len(s.free) < maxFree {
			s.free = append(s.free, e.reply)
		}
	}
	p.kept = slices.Delete(p.kept, i, j)
	s.nkept -= j - i
	if c := cap(p.kept); c > minKeptCap && 4*len(p.kept) <= c {
		p.kept = append(make([]kept, 0, max(minKeptCap, 2*len(p.kept))), p.kept...)
	}
}

// evict makes room at the maxKept cap: the peer holding the most drops its
// oldest entry above its ack; the one at its ack, the call it still waits for,
// goes only when every peer holds just that. An emptied peer but p leaves.
func (s *Server) evict(p *peer) {
	var vkey peerKey
	var v *peer
	for k, q := range s.peers {
		if v == nil || len(q.kept) > len(v.kept) {
			vkey, v = k, q
		}
	}
	i := 0
	if len(v.kept) > 1 && v.kept[0].id == v.ack {
		i = 1
	}
	s.drop(v, i, i+1)
	if len(v.kept) == 0 && v != p {
		delete(s.peers, vkey)
	}
}

// Client issues requests to a wire server and matches responses by ID,
// retransmitting on loss. A single UDP socket is shared by all calls; a
// reader goroutine demultiplexes responses to waiting callers.
type Client struct {
	conn net.Conn

	mu      sync.Mutex
	nextID  uint64
	acked   uint64 // no ID below it is pending
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
	return newClient(conn, opts...), nil
}

// newClient runs a client on a connected socket. A random non-zero incarnation
// in its IDs' upper half keeps a server from answering it with replies meant
// for an earlier client on the same port.
func newClient(conn net.Conn, opts ...ClientOption) *Client {
	inc := uint64(rand.Uint32N(math.MaxUint32)+1) << 32
	c := &Client{
		conn:       conn,
		nextID:     inc,
		acked:      inc + 1,
		pending:    make(map[uint64]chan *Message),
		retransmit: 200 * time.Millisecond,
		attempts:   3,
	}
	for _, o := range opts {
		o(c)
	}
	c.wg.Add(1)
	go c.readLoop()
	return c
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
// the configured number of attempts. The client assigns req.ID and req.Ack; a
// retransmission resends the same bytes. Call honors ctx cancellation.
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
	// acked only rises, so the lowest pending ID costs one lookup amortised.
	for c.acked < req.ID {
		if _, ok := c.pending[c.acked]; ok {
			break
		}
		c.acked++
	}
	req.Ack = c.acked
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
