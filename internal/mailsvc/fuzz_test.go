package mailsvc

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/netsvc"
)

// FuzzMailSession runs one server session over a pipe with a script of
// protocol lines, one per input line. Every command must get its reply, and
// a body the server delivers must read back through LIST and RETR as the DATA
// lines had it once their dot-stuffing is undone.
func FuzzMailSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4<<10 {
			return // long lines and bodies are the bound tests'
		}
		srv := &Server{store: NewStore()}
		client, conn := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer conn.Close()
			srv.session(conn)
		}()
		defer func() { client.Close(); <-done }()
		client.SetDeadline(time.Now().Add(5 * time.Second))
		r := bufio.NewReader(client)
		send := func(line string) {
			t.Helper()
			if _, err := io.WriteString(client, line+"\r\n"); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
		readLine := func() string {
			t.Helper()
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			return strings.TrimRight(line, "\r\n")
		}
		// upToDot reads the lines of a multi-line reply, "." excluded.
		upToDot := func() []string {
			var lines []string
			for line := readLine(); line != "."; line = readLine() {
				lines = append(lines, line)
			}
			return lines
		}
		// do sends one command and returns its status line, reading past the
		// listing a successful LIST or RETR adds.
		do := func(cmd string) (string, []string) {
			send(cmd)
			status := readLine()
			verb, _, _ := strings.Cut(cmd, " ")
			if verb = strings.ToUpper(verb); strings.HasPrefix(status, "250") && (verb == "LIST" || verb == "RETR") {
				return status, upToDot()
			}
			return status, nil
		}
		readLine() // greeting

		var (
			rcpt string   // the last recipient accepted since MAIL
			data []string // the DATA lines sent, once DATA is answered 354
			body bool     // whether the lines now go to a DATA body
		)
		// "\r\n" ends every line sent, so no line holds a '\r'.
		for _, line := range strings.Split(strings.ReplaceAll(string(script), "\r", ""), "\n") {
			if body && line != "." {
				send(line)
				data = append(data, strings.TrimPrefix(line, "."))
				continue
			}
			status, _ := do(line)
			verb, rest, _ := strings.Cut(line, " ")
			switch verb = strings.ToUpper(verb); {
			case verb == "QUIT":
				return
			case verb == "MAIL" && strings.HasPrefix(status, "250"):
				rcpt = ""
			case verb == "RCPT" && strings.HasPrefix(status, "250"):
				rcpt = angleAddr(strings.TrimPrefix(rest, "TO:"))
			case verb == "DATA" && strings.HasPrefix(status, "354"):
				body, data = true, nil
			case body:
				body = false
				if !strings.HasPrefix(status, "250") {
					continue
				}
				status, rows := do("LIST " + rcpt)
				if !strings.HasPrefix(status, "250") || len(rows) == 0 {
					t.Fatalf("delivered to %q, then LIST: %q %q", rcpt, status, rows)
				}
				seq, _, _ := strings.Cut(rows[len(rows)-1], " ")
				status, lines := do("RETR " + rcpt + " " + seq)
				for i, l := range lines {
					lines[i] = strings.TrimPrefix(l, ".")
				}
				want := strings.Join(data, "\n")
				if got := strings.Join(lines, "\n"); !strings.HasPrefix(status, "250") || got != want {
					t.Fatalf("delivered %q to %q, RETR %s: %q %q", want, rcpt, seq, status, got)
				}
				rcpt = ""
			}
		}
	})
}

// scriptConn is the client end of a net.Pipe whose server end sends a script
// and hangs up, whatever it is told; what the client writes is kept here
// instead of sent.
type scriptConn struct {
	net.Conn
	wrote bytes.Buffer
}

func (c *scriptConn) Write(p []byte) (int, error) { return c.wrote.Write(p) }

// doScripted runs Do(payload) on a client of a server that sends script
// after its greeting, and returns Do's result and what it wrote.
func doScripted(t *testing.T, script []byte, payload string) ([]byte, string, error) {
	t.Helper()
	client, server := net.Pipe()
	conn := &scriptConn{Conn: client}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	done := make(chan struct{})
	go func() {
		defer close(done)
		server.Write(script)
		server.Close()
	}()
	defer func() { client.Close(); <-done }()
	line, err := netsvc.NewClient(conn, "220")
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{line: line}
	out, err := c.Do([]byte(payload))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Do(%q) hung", payload)
	}
	if err == nil && out == nil {
		t.Fatalf("Do(%q) returned neither a reply nor an error", payload)
	}
	return out, conn.wrote.String(), err
}

// FuzzMailClient runs Do against a scripted server: the greeting, then the
// fuzz bytes. Do must return a reply or an error and never hang; LIST and
// RETR write one command line at most, and a payload Do refuses writes none;
// and the same payload answered first by a line over 64 KiB fails with
// netsvc.ErrLineTooLong.
func FuzzMailClient(f *testing.F) {
	const hello = "220 mailsvc ready\r\n"
	f.Fuzz(func(t *testing.T, payload string, reply []byte) {
		if len(reply) > 4<<10 {
			return
		}
		_, wrote, err := doScripted(t, append([]byte(hello), reply...), payload)
		if verb, _ := netsvc.SplitCommand([]byte(payload)); verb != "SEND" && strings.Count(wrote, "\n") > 1 {
			t.Fatalf("Do(%q) wrote more than one line: %q", payload, wrote)
		}
		if errors.Is(err, netsvc.ErrRefused) {
			if wrote != "" {
				t.Fatalf("Do(%q) refused, but wrote %q", payload, wrote)
			}
			return
		}
		long := append([]byte(hello), bytes.Repeat([]byte("2"), 64<<10+1)...)
		if _, _, err := doScripted(t, append(long, reply...), payload); !errors.Is(err, netsvc.ErrLineTooLong) {
			t.Fatalf("Do(%q) under a 64 KiB line: err = %v, want ErrLineTooLong", payload, err)
		}
	})
}
