package mailsvc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/netsvc"
)

// rawSession dials the server and returns helpers for speaking the protocol
// by hand, so tests can exercise error branches the Client never produces.
func rawSession(t *testing.T, srv *Server) (say func(string), expect func(prefix string)) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	say = func(line string) {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\r\n", line); err != nil {
			t.Fatal(err)
		}
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
	expect("220") // greeting
	return say, expect
}

func TestProtocolSequencingErrors(t *testing.T) {
	srv, err := NewServer(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	say, expect := rawSession(t, srv)

	// Everything before HELO is rejected with 503.
	say("MAIL FROM:<a@x.com>")
	expect("503")
	say("LIST a@x.com")
	expect("503")
	say("RETR a@x.com 1")
	expect("503")

	say("HELO tester")
	expect("250")

	// RCPT before MAIL, DATA before RCPT.
	say("RCPT TO:<b@x.com>")
	expect("503")
	say("DATA")
	expect("503")

	// Unknown verb keeps the session alive.
	say("FROBNICATE")
	expect("500")

	// Bad addresses.
	say("MAIL FROM:<notanaddress>")
	expect("553")
	say("MAIL FROM:<a@x.com>")
	expect("250")
	say("RCPT TO:<junk>")
	expect("553")
	say("RCPT TO:<b@x.com>")
	expect("250")

	// A full DATA exchange still works after all those errors.
	say("DATA")
	expect("354")
	say("body line")
	say(".")
	expect("250")

	say("QUIT")
	expect("221")
}

func TestProtocolRetrBadSequence(t *testing.T) {
	srv, err := NewServer(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	say, expect := rawSession(t, srv)
	say("HELO t")
	expect("250")
	say("RETR a@x.com notanumber")
	expect("501")
}

func TestConnectTimeoutAndFailure(t *testing.T) {
	if _, err := Connect("127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Fatal("connect to closed port succeeded")
	}
	// A listener that never greets trips the client's read.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close() // close without greeting
		}
	}()
	if _, err := Connect(ln.Addr().String(), time.Second); err == nil {
		t.Fatal("connect without greeting succeeded")
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

// dialMail connects to srv and reads its greeting.
func dialMail(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	return conn, r
}

// TestLongLineEndsSession: a line with no end is refused at 64 KiB rather
// than buffered whole, as a command and inside a DATA body; the session says
// so and ends.
func TestLongLineEndsSession(t *testing.T) {
	srv, err := NewServer(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, prefix := range []string{"", "HELO t\r\nMAIL FROM:<a@x.com>\r\nRCPT TO:<b@x.com>\r\nDATA\r\n"} {
		conn, r := dialMail(t, srv)
		if _, err := io.WriteString(conn, prefix); err != nil {
			t.Fatal(err)
		}
		lines, grew := flood(t, conn, r, bytes.Repeat([]byte("x"), 64<<10))
		if len(lines) == 0 || lines[len(lines)-1] != "500 line too long" {
			t.Errorf("after %q: replies %q, want a last 500 line too long", prefix, lines)
		}
		if grew >= 1<<20 {
			t.Errorf("after %q: a 16 MiB line allocated %d bytes", prefix, grew)
		}
	}
}

// TestBodyOverCapEndsSession: a DATA body is kept only up to its cap; past
// it the session answers 552 and ends. What the session may keep is the cap
// itself, so the bound is the cap plus the 1 MiB a line flood gets.
func TestBodyOverCapEndsSession(t *testing.T) {
	srv, err := NewServer(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, r := dialMail(t, srv)
	if _, err := io.WriteString(conn, "HELO t\r\nMAIL FROM:<a@x.com>\r\nRCPT TO:<b@x.com>\r\nDATA\r\n"); err != nil {
		t.Fatal(err)
	}
	line := append(bytes.Repeat([]byte("x"), 1022), '\r', '\n')
	lines, grew := flood(t, conn, r, bytes.Repeat(line, 64))
	if want := []string{"250 hello", "250 ok", "250 ok", "354 end with .", "552 message too large"}; !slices.Equal(lines, want) {
		t.Errorf("replies %q, want %q", lines, want)
	}
	if grew >= maxMessageBytes+1<<20 {
		t.Errorf("a 16 MiB body allocated %d bytes", grew)
	}
	if msgs, err := srv.store.List("b@x.com"); !errors.Is(err, ErrNoMailbox) {
		t.Errorf("a refused body was delivered: %v, %v", msgs, err)
	}
}

// TestRecipientsPastCapRefused: RCPT past the cap is refused with 452 and
// the session goes on to deliver to the recipients it kept.
func TestRecipientsPastCapRefused(t *testing.T) {
	srv, err := NewServer(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	say, expect := rawSession(t, srv)
	say("HELO t")
	expect("250")
	say("MAIL FROM:<a@x.com>")
	expect("250")
	for i := 1; i <= maxRecipients; i++ {
		say(fmt.Sprintf("RCPT TO:<u%d@x.com>", i))
		expect("250")
	}
	say("RCPT TO:<over@x.com>")
	expect("452 too many recipients")
	say("DATA")
	expect("354")
	say("hi")
	say(".")
	expect(fmt.Sprintf("250 delivered %d", maxRecipients))
}

// TestClientRefusesLongLine: the client bounds what it reads the same way.
func TestClientRefusesLongLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	chunk := bytes.Repeat([]byte("2"), 64<<10)
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
	_, err = Connect(ln.Addr().String(), time.Second)
	runtime.ReadMemStats(&after)
	<-served
	if !errors.Is(err, netsvc.ErrLineTooLong) {
		t.Errorf("Connect err = %v, want ErrLineTooLong", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a 16 MiB greeting allocated %d bytes", grew)
	}
}

// TestClientClosedOperations: Do forwards only SEND, LIST and RETR; HELO,
// QUIT and anything else is refused before a byte is written, and after
// Close every request fails.
func TestClientClosedOperations(t *testing.T) {
	_, cli := startMail(t)
	for _, payload := range []string{"HELO x", "QUIT", "DATA", "FROB x", "", "SEND a@x.com"} {
		if _, err := cli.Do([]byte(payload)); !errors.Is(err, netsvc.ErrRefused) {
			t.Errorf("%q: err = %v, want ErrRefused", payload, err)
		}
	}
	do(t, cli, "SEND a@x.com b@x.com x")
	cli.Close()
	if _, err := cli.Do([]byte("SEND a@x.com b@x.com x")); err == nil {
		t.Fatal("send after close succeeded")
	}
}
