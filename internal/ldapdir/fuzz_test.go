package ldapdir

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/netsvc"
)

// everything is a filter every entry matches; SEARCH without a filter only
// finds entries that carry an objectclass.
const everything = "(|(objectclass=*)(!(objectclass=*)))"

// added is what SEARCH should print for the entry an ADD of dn with attrText
// created, as sorted "name value" pairs: every non-empty value the list
// carried, under its trimmed lowercase name, plus the RDN's own value.
func added(dn DN, attrText string) []string {
	var want []string
	if attrText = strings.TrimSpace(attrText); attrText != "" {
		for _, pair := range strings.Split(attrText, "|") {
			if name, val, _ := strings.Cut(pair, "="); val != "" {
				want = append(want, strings.ToLower(strings.TrimSpace(name))+" "+val)
			}
		}
	}
	if rdn := strings.Replace(dn[0], "=", " ", 1); !slices.Contains(want, rdn) {
		want = append(want, rdn)
	}
	slices.Sort(want)
	return want
}

// FuzzLDAPSession runs one server session over a pipe with a script of
// command lines, one per input line. Every command must get its reply, and an
// ADD the server accepts must read back through SEARCH as the ADD line had it.
func FuzzLDAPSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4<<10 {
			return // long lines are TestLongLineEndsSession's
		}
		srv := &Server{dir: newTestDir(t), user: "cn=web", pass: "web"}
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
		readLine := func() (string, error) {
			line, err := r.ReadString('\n')
			return strings.TrimRight(line, "\r\n"), err
		}
		// do sends one command and returns its reply: the "*" lines, then
		// the "+OK" or "-ERR" line.
		do := func(cmd string) []string {
			t.Helper()
			if _, err := io.WriteString(client, cmd+"\r\n"); err != nil {
				t.Fatalf("%q: %v", cmd, err)
			}
			var reply []string
			for {
				line, err := readLine()
				if err != nil {
					t.Fatalf("%q: reply %q: %v", cmd, reply, err)
				}
				if reply = append(reply, line); !strings.HasPrefix(line, "*") {
					return reply
				}
			}
		}
		if _, err := readLine(); err != nil {
			t.Fatal(err)
		}
		// "\r\n" ends every line sent, so no command holds a '\r'.
		for _, cmd := range strings.Split(strings.ReplaceAll(string(script), "\r", ""), "\n") {
			verb, rest, _ := strings.Cut(cmd, " ")
			verb = strings.ToUpper(verb)
			reply := do(cmd)
			if verb == "QUIT" {
				return
			}
			if verb != "ADD" || reply[0] != "+OK added" {
				continue
			}
			dnText, attrText, _ := strings.Cut(rest, " ")
			dn, err := ParseDN(dnText)
			if err != nil {
				t.Fatalf("%q: accepted with DN error %v", cmd, err)
			}
			var got []string
			entry := false
			for _, line := range do("SEARCH " + dn.String() + " base " + everything) {
				if v, ok := strings.CutPrefix(line, "*ENTRY "); ok {
					entry = v == dn.String()
				} else if v, ok := strings.CutPrefix(line, "*ATTR "); ok && entry {
					got = append(got, v)
				}
			}
			slices.Sort(got)
			if want := added(dn, attrText); !slices.Equal(got, want) {
				t.Fatalf("%q reads back as %q, want %q", cmd, got, want)
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
	line, err := netsvc.NewClient(conn, "+OK")
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

// FuzzDirClient runs Do against a scripted server: the greeting, then the
// fuzz bytes. Do must return a reply or an error and never hang; it writes
// one command line at most, and none for a payload it refuses; and the same
// payload answered first by a line over 64 KiB fails with
// netsvc.ErrLineTooLong.
func FuzzDirClient(f *testing.F) {
	const hello = "+OK ldapdir/1 ready\r\n"
	f.Fuzz(func(t *testing.T, payload string, reply []byte) {
		if len(reply) > 4<<10 {
			return
		}
		_, wrote, err := doScripted(t, append([]byte(hello), reply...), payload)
		if strings.Count(wrote, "\n") > 1 {
			t.Fatalf("Do(%q) wrote more than one line: %q", payload, wrote)
		}
		if errors.Is(err, netsvc.ErrRefused) {
			if wrote != "" {
				t.Fatalf("Do(%q) refused, but wrote %q", payload, wrote)
			}
			return
		}
		long := append([]byte(hello), bytes.Repeat([]byte("*"), 64<<10+1)...)
		if _, _, err := doScripted(t, append(long, reply...), payload); !errors.Is(err, netsvc.ErrLineTooLong) {
			t.Fatalf("Do(%q) under a 64 KiB line: err = %v, want ErrLineTooLong", payload, err)
		}
	})
}
