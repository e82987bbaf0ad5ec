package netsvc

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// listen starts a server whose sessions run serve with the server itself.
func listen(t *testing.T, serve func(*Server, net.Conn)) *Server {
	t.Helper()
	var s *Server
	ready := make(chan struct{})
	s, err := Listen("127.0.0.1:0", func(c net.Conn) { <-ready; serve(s, c) })
	if err != nil {
		t.Fatal(err)
	}
	close(ready)
	t.Cleanup(func() { s.Close() })
	return s
}

// echo answers each line with itself, between requests checking whether the
// server is closing. A "slow" line is answered once release is closed.
func echo(started, release chan struct{}) func(*Server, net.Conn) {
	return func(s *Server, c net.Conn) {
		r := bufio.NewReader(c)
		for !s.Closing() {
			line, err := ReadLine(r)
			if err != nil {
				return
			}
			if line == "slow" {
				close(started)
				<-release
			}
			io.WriteString(c, line+"\n")
		}
	}
}

// dial connects and completes one echo round trip, so the session is running.
func dial(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r := bufio.NewReader(c)
	if _, err := io.WriteString(c, "hi\n"); err != nil {
		t.Fatal(err)
	}
	if line, err := ReadLine(r); err != nil || line != "hi" {
		t.Fatalf("echo = %q, %v", line, err)
	}
	return c, r
}

func TestCloseEndsSessions(t *testing.T) {
	s := listen(t, echo(nil, nil))
	var readers []*bufio.Reader
	for i := 0; i < 3; i++ {
		_, r := dial(t, s)
		readers = append(readers, r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !s.Closing() {
		t.Fatal("Closing() = false after Close")
	}
	for i, r := range readers {
		if _, err := ReadLine(r); err == nil {
			t.Errorf("conn %d still open after Close", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if c, err := net.Dial("tcp", s.Addr().String()); err == nil {
		c.Close()
		t.Fatal("dial succeeded after Close")
	}
}

func TestDrainFinishesTheRequestInFlight(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s := listen(t, echo(started, release))
	busy, busyReader := dial(t, s)
	_, idle := dial(t, s)
	io.WriteString(busy, "slow\n")
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	if _, err := ReadLine(idle); err == nil {
		t.Error("idle connection survived Drain")
	}
	close(release)
	if line, err := ReadLine(busyReader); err != nil || line != "slow" {
		t.Errorf("in-flight reply = %q, %v", line, err)
	}
	if _, err := ReadLine(busyReader); err == nil {
		t.Error("busy connection took a second request while draining")
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close after Drain = %v", err)
	}
}

func TestDrainDeadlineClosesStragglers(t *testing.T) {
	// The session outlives read deadlines, so only a close ends it.
	s := listen(t, func(_ *Server, c net.Conn) {
		var b [1]byte
		io.WriteString(c, "up\n")
		for {
			_, err := c.Read(b[:])
			if ne, ok := err.(net.Error); err != nil && !(ok && ne.Timeout()) {
				return
			}
			c.SetReadDeadline(time.Time{})
		}
	})
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if line, err := ReadLine(bufio.NewReader(c)); err != nil || line != "up" {
		t.Fatalf("session start = %q, %v", line, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
}

func TestConcurrentStops(t *testing.T) {
	s := listen(t, echo(nil, nil))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if c, err := net.Dial("tcp", s.Addr().String()); err == nil {
				io.WriteString(c, "x\n")
				c.Close()
			}
		}()
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				s.Close()
			} else {
				s.Drain(context.Background())
			}
		}()
	}
	wg.Wait()
}

func TestReadLine(t *testing.T) {
	long := strings.Repeat("x", maxLine-2)
	for _, tc := range []struct {
		in, want string
		err      error
	}{
		{"plain\nnext\n", "plain", nil},
		{"crlf\r\n", "crlf", nil},
		{"extra\r\r\n", "extra", nil},
		{"in\rside\n", "in\rside", nil},
		{"\n", "", nil},
		{long + "\r\n", long, nil},
		{long + "xy\n", "", ErrLineTooLong},
		{strings.Repeat("y", 1<<20), "", ErrLineTooLong},
		{"no end", "", io.EOF},
	} {
		// A 16-byte buffer sends every line past 16 bytes down the path
		// that joins fragments.
		for _, size := range []int{16, 4096} {
			got, err := ReadLine(bufio.NewReaderSize(strings.NewReader(tc.in), size))
			if got != tc.want || !errors.Is(err, tc.err) {
				t.Errorf("size %d: ReadLine(%.20q) = %.20q, %v; want %.20q, %v", size, tc.in, got, err, tc.want, tc.err)
			}
		}
	}
}

// TestClientRefusesLineBreaks: a batch with a CR or LF in any line is
// refused whole, before a byte is written; the session goes on in step.
func TestClientRefusesLineBreaks(t *testing.T) {
	s := listen(t, func(s *Server, c net.Conn) {
		io.WriteString(c, "+OK hello\r\n")
		echo(nil, nil)(s, c)
	})
	c, err := Dial(s.Addr().String(), time.Second, "+OK")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, batch := range [][]string{{"a\r\nb"}, {"ok", "c\nd"}, {"e\rf"}} {
		if err := c.Send(batch...); !errors.Is(err, ErrRefused) {
			t.Errorf("Send(%q) = %v, want ErrRefused", batch, err)
		}
	}
	if err := c.Send("next"); err != nil {
		t.Fatal(err)
	}
	if line, err := c.Line(); line != "next" || err != nil {
		t.Fatalf("reply to the next line = %q, %v; want its echo", line, err)
	}
	if _, err := Dial(s.Addr().String(), time.Second, "220"); err == nil {
		t.Fatal("a greeting without the wanted prefix was accepted")
	}
}

func TestSplitCommand(t *testing.T) {
	verb, rest := SplitCommand([]byte("  search dc=example sub "))
	if verb != "SEARCH" || rest != "dc=example sub" {
		t.Fatalf("SplitCommand = %q, %q", verb, rest)
	}
	verb, rest = SplitCommand([]byte("PING"))
	if verb != "PING" || rest != "" {
		t.Fatalf("SplitCommand = %q, %q", verb, rest)
	}
}
