package httpserver

import (
	"bufio"
	"bytes"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parse runs one parser over raw and reports how many bytes of raw it took:
// what the source gave up minus what is still buffered.
func parse[T any](raw []byte, read func(*bufio.Reader) (T, error)) (T, int, error) {
	src := bytes.NewReader(raw)
	r := bufio.NewReader(src)
	v, err := read(r)
	return v, len(raw) - src.Len() - r.Buffered(), err
}

// checkFraming fails unless the message ended exactly at its declared body:
// the body is the content-length bytes right after the head's blank line.
func checkFraming(t *testing.T, raw []byte, consumed int, header map[string]string, body []byte) {
	t.Helper()
	n := 0
	if cl := header["content-length"]; cl != "" {
		n, _ = strconv.Atoi(cl)
	}
	head := consumed - len(body)
	if len(body) != n || head < 1 || raw[head-1] != '\n' || !bytes.Equal(raw[head:consumed], body) {
		t.Fatalf("body of %d bytes ends at %d; declared %q", len(body), consumed, header["content-length"])
	}
}

// framed returns header without the two headers a writer derives.
func framed(header map[string]string) map[string]string {
	h := maps.Clone(header)
	delete(h, "content-length")
	delete(h, "connection")
	return h
}

// FuzzReadRequest: ReadRequest never panics, takes exactly the declared
// body, and a request it accepts survives the client's writer unchanged.
func FuzzReadRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, consumed, err := parse(raw, ReadRequest)
		if err != nil {
			return
		}
		checkFraming(t, raw, consumed, req.Header, req.Body)

		close := strings.EqualFold(req.Header["connection"], "close")
		var buf bytes.Buffer
		if err := writeRequest(bufio.NewWriter(&buf), req, close); err != nil {
			t.Fatal(err)
		}
		again, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("rewritten request %q: %v", buf.Bytes(), err)
		}
		if again.Method != req.Method || again.Path != req.Path ||
			!maps.Equal(again.Query, req.Query) || !slices.Equal(again.MGetTargets, req.MGetTargets) ||
			!maps.Equal(framed(again.Header), framed(req.Header)) || !bytes.Equal(again.Body, req.Body) ||
			strings.EqualFold(again.Header["connection"], "close") != close {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", req, again)
		}
	})
}

// FuzzReadResponse: readResponse never panics, takes exactly the declared
// body, and a response it accepts survives writeResponse unchanged.
func FuzzReadResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		type read struct {
			resp     *Response
			reusable bool
		}
		got, consumed, err := parse(raw, func(r *bufio.Reader) (read, error) {
			resp, reusable, err := readResponse(r, new([]byte))
			return read{resp, reusable}, err
		})
		if err != nil {
			return
		}
		resp := got.resp
		checkFraming(t, raw, consumed, resp.Header, resp.Body)

		var buf bytes.Buffer
		if err := writeResponse(bufio.NewWriter(&buf), resp, !got.reusable); err != nil {
			t.Fatal(err)
		}
		again, reusable, err := readResponse(bufio.NewReader(&buf), new([]byte))
		if err != nil {
			t.Fatalf("rewritten response %q: %v", buf.Bytes(), err)
		}
		if again.Status != resp.Status || reusable != got.reusable ||
			!maps.Equal(framed(again.Header), framed(resp.Header)) || !bytes.Equal(again.Body, resp.Body) {
			t.Fatalf("round trip changed the response:\n%+v\n%+v", resp, again)
		}
	})
}
