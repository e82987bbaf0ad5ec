package mailsvc

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"
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
