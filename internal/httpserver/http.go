// Package httpserver is a small HTTP/1.1 server and client implemented
// directly on net, standing in for the Apache and boa web servers of the
// paper's testbed. It deliberately reproduces the two features the
// experiments depend on:
//
//   - a MaxClients-style cap on simultaneously processed requests (the
//     paper's backend web servers allow at most 5; excess requests queue),
//     and
//   - the MGET extension (paper §III, citing the www-talk MGET proposal)
//     that lets a service broker fetch several URIs over one connection in
//     a single round trip.
//
// The types are intentionally independent of net/http: this package is one
// of the substrates the reproduction builds from scratch.
//
// A request allocates only what outlives it. Each connection reuses one
// Request, its maps and a head buffer; the head (request line and headers,
// at most 64 KiB) becomes one string, and every string the parser hands a
// handler is a substring of it, so strings may be kept but the *Request, its
// maps and its Body only until the handler returns. A Response the client
// returns is the caller's.
package httpserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Request is one parsed HTTP request.
type Request struct {
	Method string
	// Path is the request target without the query string.
	Path string
	// Query holds decoded query parameters (last value wins).
	Query map[string]string
	Proto string
	// Header holds canonicalized (lowercase) header names.
	Header map[string]string
	Body   []byte
	// MGetTargets carries the URI list of an MGET request.
	MGetTargets []string
}

// Response is one HTTP response.
type Response struct {
	Status int
	Header map[string]string
	Body   []byte
}

// StatusText returns the reason phrase for the handful of codes the server
// uses.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// NewResponse builds a response with a body and default headers.
func NewResponse(status int, body []byte) *Response {
	return &Response{Status: status, Header: map[string]string{}, Body: body}
}

// Text builds a 200 text/plain response.
func Text(body string) *Response {
	r := NewResponse(200, []byte(body))
	r.Header["content-type"] = "text/plain"
	return r
}

// Error builds an error response with a plain-text body.
func Error(status int, msg string) *Response {
	r := NewResponse(status, []byte(msg))
	r.Header["content-type"] = "text/plain"
	return r
}

const (
	// maxHeadBytes bounds a message head: the start line and the headers.
	maxHeadBytes = 64 << 10
	// maxBodyBytes bounds the body a request or a response may declare.
	maxBodyBytes = 16 << 20
)

var errHeadTooLarge = errors.New("httpserver: message head over 64 KiB")

// A server session's reader holds one request head: the front end's are
// about 250 B, and a longer head or a body reads through it in several fills.
const sessionReaderSize = 512

// The 4 KiB buffers a connection borrows for one exchange, so an idle one
// holds none. Each goes back Reset(nil), pinning no connection.
var (
	readers = sync.Pool{New: func() any { return bufio.NewReader(nil) }}
	writers = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}
)

func getWriter(w io.Writer) *bufio.Writer {
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// readHead reads a message head, the start line and headers up to the blank
// line, into *buf and returns it as one string, so that every field parsed
// from it is a substring and the head costs one allocation. *buf grows on
// demand and never holds more than maxHeadBytes.
func readHead(r *bufio.Reader, buf *[]byte) (string, error) {
	b, line := (*buf)[:0], 0 // line is where the current line starts
	defer func() { *buf = b }()
	for {
		frag, err := r.ReadSlice('\n')
		if len(b)+len(frag) > maxHeadBytes {
			return "", errHeadTooLarge
		}
		b = append(b, frag...)
		switch {
		case err == bufio.ErrBufferFull:
			continue
		case err != nil:
			return "", err
		case len(bytes.TrimRight(b[line:], "\r\n")) == 0:
			return string(b[:line]), nil
		}
		line = len(b)
	}
}

// nextLine splits the first line, without its line ending, off s.
func nextLine(s string) (string, string) {
	line, rest, _ := strings.Cut(s, "\n")
	return strings.TrimRight(line, "\r\n"), rest
}

// parseHeaders adds the header lines of s to header, names lowercased, and
// returns the body length they declare, at most maxBodyBytes.
func parseHeaders(s string, header map[string]string) (int, error) {
	for s != "" {
		var line string
		line, s = nextLine(s)
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return 0, fmt.Errorf("header %q", line)
		}
		header[strings.ToLower(strings.TrimSpace(name))] = strings.TrimSpace(value)
	}
	cl := header["content-length"]
	if cl == "" {
		return 0, nil
	}
	if n, err := strconv.Atoi(cl); err == nil && n >= 0 && n <= maxBodyBytes {
		return n, nil
	}
	return 0, fmt.Errorf("content-length %q", cl)
}

// writeHeaders ends a message head: header, names lowercased, but for the two
// it derives, the body length n and "connection: close" when close; then the
// blank line.
func writeHeaders(w *bufio.Writer, header map[string]string, n int, close bool) {
	for name, value := range header {
		if name = strings.ToLower(name); name != "content-length" && name != "connection" {
			w.WriteString(name)
			w.WriteString(": ")
			w.WriteString(value)
			w.WriteString("\r\n")
		}
	}
	w.WriteString("content-length: ")
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(n), 10))
	if close {
		w.WriteString("\r\nconnection: close")
	}
	w.WriteString("\r\n\r\n")
}

// parseQuery decodes "a=1&b=2" into q (minimal %XX and + decoding; the last
// value wins).
func parseQuery(q map[string]string, raw string) {
	for raw != "" {
		var pair string
		if pair, raw, _ = strings.Cut(raw, "&"); pair != "" {
			k, v, _ := strings.Cut(pair, "=")
			q[unescape(k)] = unescape(v)
		}
	}
}

// appendQuery appends query as "k=v&k=v", escaped, with keys in sorted
// order: the inverse of parseQuery.
func appendQuery(b []byte, query map[string]string) []byte {
	var stack [8]string
	keys := stack[:0]
	for k := range query {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, '&')
		}
		b = append(appendEscape(b, k), '=')
		b = appendEscape(b, query[k])
	}
	return b
}

// unescape decodes s only when it holds an escape, allocating once: at the
// exact size when every '%' starts a well-formed escape.
func unescape(s string) string {
	if !strings.ContainsAny(s, "%+") {
		return s
	}
	var b strings.Builder
	b.Grow(max(0, len(s)-2*strings.Count(s, "%")))
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '+':
			b.WriteByte(' ')
		case s[i] == '%' && i+2 < len(s) && isHex(s[i+1]) && isHex(s[i+2]):
			b.WriteByte(unhex(s[i+1])<<4 | unhex(s[i+2]))
			i += 2
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// appendEscape appends s with every byte outside a conservative unreserved
// set written as %XX.
func appendEscape(b []byte, s string) []byte {
	const safe = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~*()/:,"
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		if c := s[i]; strings.IndexByte(safe, c) >= 0 {
			b = append(b, c)
		} else {
			b = append(b, '%', hex[c>>4], hex[c&15])
		}
	}
	return b
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func unhex(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}

// mgetBoundary separates part blocks in an MGET response body. Each part is
//
//	--MGETPART <uri> <status> <length>\n
//	<length body bytes>\n
const mgetBoundary = "--MGETPART"

// EncodeMGetParts renders per-URI responses into one MGET response body.
func EncodeMGetParts(uris []string, parts []*Response) []byte {
	var b strings.Builder
	for i, uri := range uris {
		p := parts[i]
		fmt.Fprintf(&b, "%s %s %d %d\n", mgetBoundary, uri, p.Status, len(p.Body))
		b.Write(p.Body)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// MGetPart is one decoded part of an MGET response.
type MGetPart struct {
	URI    string
	Status int
	Body   []byte
}

// DecodeMGetParts splits an MGET response body back into parts.
func DecodeMGetParts(body []byte) ([]MGetPart, error) {
	var parts []MGetPart
	rest := string(body)
	for len(rest) > 0 {
		if !strings.HasPrefix(rest, mgetBoundary+" ") {
			return nil, fmt.Errorf("httpserver: malformed MGET body near %.20q", rest)
		}
		line, tail, ok := strings.Cut(rest, "\n")
		if !ok {
			return nil, fmt.Errorf("httpserver: truncated MGET header")
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("httpserver: bad MGET header %q", line)
		}
		status, err1 := strconv.Atoi(fields[2])
		n, err2 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil || n < 0 {
			return nil, fmt.Errorf("httpserver: bad MGET header %q", line)
		}
		if len(tail) < n+1 {
			return nil, fmt.Errorf("httpserver: truncated MGET part for %s", fields[1])
		}
		parts = append(parts, MGetPart{URI: fields[1], Status: status, Body: []byte(tail[:n])})
		rest = tail[n+1:]
	}
	return parts, nil
}
