package ldapdir

import (
	"bufio"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
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
