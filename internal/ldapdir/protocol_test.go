package ldapdir

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/netsvc"
)

func TestDirectoryLen(t *testing.T) {
	d := newTestDir(t)
	if d.Len() != 6 {
		t.Fatalf("Len = %d, want 6", d.Len())
	}
}

func TestCustomBindCredentials(t *testing.T) {
	d := newTestDir(t)
	srv, err := NewServer(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.user, srv.pass = "cn=admin", "hunter2"
	defer srv.Close()
	if _, err := Connect(srv.Addr().String(), 0, "cn=web", "web"); !errors.Is(err, ErrServer) {
		t.Fatalf("default credentials against a custom server: err = %v, want ErrServer", err)
	}
	cli, err := Connect(srv.Addr().String(), 0, "cn=admin", "hunter2")
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
}

// rawLine dials and returns line-level helpers for protocol edge cases.
func rawLine(t *testing.T, srv *Server) (say func(string), expect func(string)) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	say = func(line string) {
		t.Helper()
		fmt.Fprintf(conn, "%s\r\n", line)
	}
	expect = func(prefix string) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("got %q, want prefix %q", strings.TrimSpace(line), prefix)
		}
	}
	expect("+OK")
	return say, expect
}

func TestProtocolEdgeCases(t *testing.T) {
	d := newTestDir(t)
	srv, err := NewServer(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	say, expect := rawLine(t, srv)

	say("NOPE")
	expect("-ERR")
	say("BIND cn=web web")
	expect("+OK")

	// SEARCH validation branches.
	say("SEARCH onlybase")
	expect("-ERR")
	say("SEARCH ,,bad sub")
	expect("-ERR")
	say("SEARCH dc=example sideways")
	expect("-ERR")
	say("SEARCH dc=example sub (((")
	expect("-ERR")

	// ADD with a bad DN and bad attribute list.
	say("ADD notadn a=b")
	expect("-ERR")
	say("ADD cn=x,dc=example noequalsign")
	expect("-ERR")

	// MODIFY and DEL with bad DNs.
	say("MODIFY notadn a=b")
	expect("-ERR")
	say("DEL notadn")
	expect("-ERR")

	// The session still works after all errors.
	say("SEARCH dc=example base")
	expect("*ENTRY")
}

func TestParseAttrListDeletionMarker(t *testing.T) {
	attrs, err := ParseAttrList("title=|mail=a@x.com")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := attrs["title"]; !ok || v != nil {
		t.Fatalf("title = %v, %v; want present-but-nil", v, ok)
	}
	if len(attrs["mail"]) != 1 {
		t.Fatalf("mail = %v", attrs["mail"])
	}
	for _, bad := range []string{"=value", " =value", "noequalsign"} {
		if _, err := ParseAttrList(bad); err == nil {
			t.Errorf("ParseAttrList(%q) accepted", bad)
		}
	}
}

func TestConnectFailures(t *testing.T) {
	if _, err := Connect("127.0.0.1:1", 100*time.Millisecond, "cn=web", "web"); err == nil {
		t.Fatal("connect to closed port succeeded")
	}
	// A listener that sends a non-OK greeting.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			fmt.Fprintf(c, "-ERR go away\r\n")
			c.Close()
		}
	}()
	if _, err := Connect(ln.Addr().String(), time.Second, "cn=web", "web"); err == nil {
		t.Fatal("bad greeting accepted")
	}
}

// TestClientClosed: Do forwards only the four directory requests; BIND, QUIT
// and anything else is refused before a byte is written, and after Close
// every request fails.
func TestClientClosed(t *testing.T) {
	_, cli := startTestServer(t)
	for _, payload := range []string{"BIND cn=web web", "QUIT", "FROB x", ""} {
		if _, err := cli.Do([]byte(payload)); !errors.Is(err, netsvc.ErrRefused) {
			t.Errorf("%q: err = %v, want ErrRefused", payload, err)
		}
	}
	do(t, cli, "SEARCH dc=example base")
	cli.Close()
	if _, err := cli.Do([]byte("SEARCH dc=example base")); err == nil {
		t.Fatal("search after close succeeded")
	}
}

// flood writes 16 MiB of chunk over conn and half-closes it, while reading
// lines from r until the peer ends the session. It returns the lines read and
// how many bytes the process allocated meanwhile.
func flood(t *testing.T, conn net.Conn, r *bufio.Reader, chunk []byte) ([]string, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		for n := 0; n < 16<<20; n += len(chunk) {
			if _, err := conn.Write(chunk); err != nil {
				return
			}
		}
		conn.(*net.TCPConn).CloseWrite()
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var lines []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		lines = append(lines, strings.TrimRight(line, "\r\n"))
	}
	runtime.ReadMemStats(&after)
	conn.Close()
	<-wrote
	return lines, after.TotalAlloc - before.TotalAlloc
}

// TestLongLineEndsSession: a line with no end is refused at 64 KiB rather
// than buffered whole; the session says so and ends.
func TestLongLineEndsSession(t *testing.T) {
	srv, err := NewServer(newTestDir(t), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	lines, grew := flood(t, conn, r, bytes.Repeat([]byte("x"), 64<<10))
	if len(lines) != 1 || lines[0] != "-ERR line too long" {
		t.Errorf("replies %q, want one -ERR line too long", lines)
	}
	if grew >= 1<<20 {
		t.Errorf("a 16 MiB line allocated %d bytes", grew)
	}
}

// TestClientRefusesLongLine: the client bounds what it reads the same way.
func TestClientRefusesLongLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	chunk := bytes.Repeat([]byte("+"), 64<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for n := 0; n < 16<<20; n += len(chunk) {
			if _, err := c.Write(chunk); err != nil {
				return
			}
		}
	}()
	_, err = Connect(ln.Addr().String(), time.Second, "cn=web", "web")
	runtime.ReadMemStats(&after)
	<-served
	if !errors.Is(err, netsvc.ErrLineTooLong) {
		t.Errorf("Connect err = %v, want ErrLineTooLong", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a 16 MiB greeting allocated %d bytes", grew)
	}
}

func TestNewServerNilDirectory(t *testing.T) {
	if _, err := NewServer(nil, "127.0.0.1:0"); err == nil {
		t.Fatal("nil directory accepted")
	}
}
