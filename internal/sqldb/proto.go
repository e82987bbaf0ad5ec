package sqldb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// The sqldb wire protocol frames every message as
//
//	length[4] type[1] body[length-1]
//
// and opens each session with a greeting/auth handshake, deliberately
// mirroring the multi-round-trip connection establishment of real database
// protocols. That setup cost is what the paper's API access model pays per
// request and what broker persistent connections amortize.

type frameType uint8

const (
	frameGreeting frameType = iota + 1
	frameAuth
	frameAuthOK
	frameQuery
	frameResult
	frameError
	framePing
	framePong
	frameQuit
)

const (
	maxBody          = 64 << 20 // the largest frame once a session is authenticated
	maxHandshakeBody = 4 << 10  // the largest before: a greeting, credentials or an error
	maxKeptBuffer    = 64 << 10 // the largest frame buffer a session keeps between frames
)

// Protocol errors.
var (
	ErrProtocol   = errors.New("sqldb: protocol error")
	ErrAuthFailed = errors.New("sqldb: authentication failed")
)

func appendString[T string | []byte](buf []byte, s T) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// A frameResult body carries a result set as text cells:
//
//	affected[4] ncols[2] (len[4] name)×ncols nrows[4] (len[4] text)×(nrows×ncols)
//
// Each cell is its value's text form and a NULL cell the length nullCell with
// no text. The server writes it while the engine walks the rows (sink), with
// appendHead and appendCell; the client and ResultSet.String render it with
// appendTable.
const nullCell = math.MaxUint32

var nullText = []byte("NULL")

// appendResult appends rs's frameResult body to dst.
func appendResult(dst []byte, rs *ResultSet) ([]byte, error) {
	dst = appendHead(dst, rs.Affected, rs.Columns, len(rs.Rows))
	for _, row := range rs.Rows {
		if len(row) != len(rs.Columns) {
			return nil, fmt.Errorf("%w: row width %d != %d columns", ErrProtocol, len(row), len(rs.Columns))
		}
		for _, v := range row {
			dst = appendCell(dst, cellOf(v))
		}
	}
	return dst, nil
}

// appendHead appends a frameResult body's fields before its cells to dst.
func appendHead(dst []byte, affected int, cols []string, nrows int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(affected))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(cols)))
	for _, c := range cols {
		dst = appendString(dst, c)
	}
	return binary.BigEndian.AppendUint32(dst, uint32(nrows))
}

// appendCell appends one cell to dst: its text, or the NULL marker.
func appendCell(dst []byte, c cell) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	if c.kind == 0 {
		binary.BigEndian.PutUint32(dst[at:], nullCell)
		return dst
	}
	dst = appendText(dst, c)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// readText splits the length-prefixed text at the front of buf from the rest;
// a result cell's NULL marker reads as "NULL".
func readText(buf []byte) (text, rest []byte, err error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated text", ErrProtocol)
	}
	n := binary.BigEndian.Uint32(buf)
	buf = buf[4:]
	if n == nullCell {
		return nullText, buf, nil
	}
	if uint32(len(buf)) < n {
		return nil, nil, fmt.Errorf("%w: text length %d, have %d", ErrProtocol, n, len(buf))
	}
	return buf[:n], buf[n:], nil
}

// appendTable appends the text table of a frameResult body to dst: the column
// names, then one line per row, tab-separated and newline-terminated; a
// result without columns is "OK, n row(s) affected". One walk checks every
// length against the body.
func appendTable(dst, body []byte) ([]byte, error) {
	if len(body) < 10 {
		return nil, fmt.Errorf("%w: truncated result", ErrProtocol)
	}
	ncols := int(binary.BigEndian.Uint16(body[4:]))
	if ncols == 0 {
		// Rows without columns would take no bytes, so none may be announced.
		if len(body) != 10 || binary.BigEndian.Uint32(body[6:]) != 0 {
			return nil, fmt.Errorf("%w: result without columns has rows or trailing bytes", ErrProtocol)
		}
		dst = strconv.AppendUint(append(dst, "OK, "...), uint64(binary.BigEndian.Uint32(body)), 10)
		return append(dst, " row(s) affected"...), nil
	}
	dst, rest, err := appendLine(dst, body[6:], ncols)
	if err != nil {
		return nil, err
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: truncated row count", ErrProtocol)
	}
	nrows := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	// A row takes at least four bytes, so the body bounds this loop.
	for ; nrows > 0; nrows-- {
		if dst, rest, err = appendLine(dst, rest, ncols); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(rest))
	}
	return dst, nil
}

// appendLine appends the n > 0 cells at the front of buf to dst as one line.
func appendLine(dst, buf []byte, n int) (line, rest []byte, err error) {
	var text []byte
	for i := 0; i < n; i++ {
		if text, buf, err = readText(buf); err != nil {
			return nil, nil, err
		}
		dst = append(append(dst, text...), '\t')
	}
	dst[len(dst)-1] = '\n'
	return dst, buf, nil
}

// bufferedConn is one side of a session. Every frame of the session is read
// into one buffer and written from another; a buffer that one frame grew past
// maxKeptBuffer leaves with that frame, so an idle session holds at most
// twice maxKeptBuffer.
type bufferedConn struct {
	r          *bufio.Reader
	w          io.Writer
	hdr        [5]byte
	rbuf, wbuf []byte
	limit      uint32 // the largest frame length recv accepts
}

func newBufferedConn(rw io.ReadWriter) *bufferedConn {
	return &bufferedConn{r: bufio.NewReader(rw), w: rw, limit: maxHandshakeBody}
}

// start begins a frame of type t in the write buffer; the caller appends the
// body and hands the frame to send.
func (c *bufferedConn) start(t frameType) []byte {
	return append(c.wbuf[:0], 0, 0, 0, 0, byte(t))
}

// send writes a frame begun by start.
func (c *bufferedConn) send(frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := c.w.Write(frame)
	c.wbuf = reusable(frame)
	return err
}

// recv reads one frame. The body is valid until the next recv.
func (c *bufferedConn) recv() (frameType, []byte, error) {
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(c.hdr[:4])
	if n == 0 || n > c.limit {
		return 0, nil, fmt.Errorf("%w: frame length %d", ErrProtocol, n)
	}
	body, err := readBody(c.r, c.rbuf, int(n-1))
	c.rbuf = reusable(body)
	if err != nil {
		return 0, nil, err
	}
	return frameType(c.hdr[4]), body, nil
}

// readBody reads an n-byte frame body into buf, growing buf only as the bytes
// arrive: a peer that announces a large frame and sends less makes the
// session allocate at most about twice what it sent.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 512)))
		got, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// reusable returns buf emptied for the next frame, or nil when it has grown
// past maxKeptBuffer.
func reusable(buf []byte) []byte {
	if cap(buf) > maxKeptBuffer {
		return nil
	}
	return buf[:0]
}
