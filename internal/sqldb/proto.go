package sqldb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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

// maxBody bounds one frame body to keep a malicious peer from forcing huge
// allocations.
const maxBody = 64 << 20

// Protocol errors.
var (
	ErrProtocol   = errors.New("sqldb: protocol error")
	ErrAuthFailed = errors.New("sqldb: authentication failed")
)

// writeFrame sends one frame.
func writeFrame(w io.Writer, t frameType, body []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame.
func readFrame(r io.Reader) (frameType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > maxBody {
		return 0, nil, fmt.Errorf("%w: frame length %d", ErrProtocol, n)
	}
	body := make([]byte, n-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return frameType(hdr[4]), body, nil
}

// Value tags used inside result frames.
const (
	tagNull  = 0
	tagInt   = 1
	tagFloat = 2
	tagText  = 3
)

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	if len(buf) < 4 {
		return "", nil, fmt.Errorf("%w: truncated string", ErrProtocol)
	}
	n := binary.BigEndian.Uint32(buf)
	buf = buf[4:]
	if uint32(len(buf)) < n {
		return "", nil, fmt.Errorf("%w: string length %d, have %d", ErrProtocol, n, len(buf))
	}
	return string(buf[:n]), buf[n:], nil
}

func appendValue(buf []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, tagNull), nil
	case int64:
		buf = append(buf, tagInt)
		return binary.BigEndian.AppendUint64(buf, uint64(x)), nil
	case float64:
		buf = append(buf, tagFloat)
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(x)), nil
	case string:
		buf = append(buf, tagText)
		return appendString(buf, x), nil
	default:
		return nil, fmt.Errorf("%w: unsupported value type %T", ErrProtocol, v)
	}
}

func readValue(buf []byte) (Value, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("%w: truncated value", ErrProtocol)
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case tagNull:
		return nil, buf, nil
	case tagInt:
		if len(buf) < 8 {
			return nil, nil, fmt.Errorf("%w: truncated int", ErrProtocol)
		}
		return int64(binary.BigEndian.Uint64(buf)), buf[8:], nil
	case tagFloat:
		if len(buf) < 8 {
			return nil, nil, fmt.Errorf("%w: truncated float", ErrProtocol)
		}
		return math.Float64frombits(binary.BigEndian.Uint64(buf)), buf[8:], nil
	case tagText:
		s, rest, err := readString(buf)
		return s, rest, err
	default:
		return nil, nil, fmt.Errorf("%w: unknown value tag %d", ErrProtocol, tag)
	}
}

// encodeResult serializes a ResultSet into a frameResult body.
func encodeResult(rs *ResultSet) ([]byte, error) {
	buf := binary.BigEndian.AppendUint32(nil, uint32(rs.Affected))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(rs.Columns)))
	for _, c := range rs.Columns {
		buf = appendString(buf, c)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rs.Rows)))
	for _, row := range rs.Rows {
		if len(row) != len(rs.Columns) {
			return nil, fmt.Errorf("%w: row width %d != %d columns", ErrProtocol, len(row), len(rs.Columns))
		}
		var err error
		for _, v := range row {
			buf, err = appendValue(buf, v)
			if err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// decodeResult parses a frameResult body.
func decodeResult(buf []byte) (*ResultSet, error) {
	if len(buf) < 10 {
		return nil, fmt.Errorf("%w: truncated result", ErrProtocol)
	}
	rs := &ResultSet{Affected: int(binary.BigEndian.Uint32(buf))}
	buf = buf[4:]
	ncols := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	var err error
	for i := 0; i < ncols; i++ {
		var c string
		c, buf, err = readString(buf)
		if err != nil {
			return nil, err
		}
		rs.Columns = append(rs.Columns, c)
	}
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: truncated row count", ErrProtocol)
	}
	nrows := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if ncols == 0 && nrows > 0 {
		// Such rows take no bytes, so the body length would not bound them.
		return nil, fmt.Errorf("%w: %d rows without columns", ErrProtocol, nrows)
	}
	for i := 0; i < nrows; i++ {
		row := make([]Value, ncols)
		for j := 0; j < ncols; j++ {
			row[j], buf, err = readValue(buf)
			if err != nil {
				return nil, err
			}
		}
		rs.Rows = append(rs.Rows, row)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(buf))
	}
	return rs, nil
}

// bufferedConn pairs a buffered reader with the raw writer for one session.
type bufferedConn struct {
	r io.Reader
	w *bufio.Writer
}

func newBufferedConn(rw io.ReadWriter) *bufferedConn {
	return &bufferedConn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

func (c *bufferedConn) send(t frameType, body []byte) error {
	if err := writeFrame(c.w, t, body); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *bufferedConn) recv() (frameType, []byte, error) {
	return readFrame(c.r)
}
