package ldapdir

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"

	"servicebroker/internal/netsvc"
)

// The ldapdir wire protocol is line-oriented:
//
//	S: +OK ldapdir/1 ready
//	C: BIND <user> <password>
//	S: +OK bound
//	C: SEARCH <base> <base|one|sub> <filter>
//	S: *ENTRY <dn>          (repeated per entry)
//	S: *ATTR <name> <value> (repeated per attribute value)
//	S: +OK <n> entries
//	C: ADD <dn> <attr=val|attr=val|...>
//	C: MODIFY <dn> <attr=val|attr=|...>   (empty value deletes the attribute)
//	C: DEL <dn>
//	C: QUIT
//
// Errors are reported as "-ERR <message>". Every session must BIND first;
// that round trip is the connection-setup cost the broker's persistent
// connections amortize. A line, in either direction, may be at most 64 KiB:
// the server answers a longer one with "-ERR line too long" and ends the
// session, and the client fails with netsvc.ErrLineTooLong.

// ErrNotBound is returned when operations precede BIND.
var ErrNotBound = errors.New("ldapdir: not bound")

// ErrBindFailed is returned for bad credentials.
var ErrBindFailed = errors.New("ldapdir: bind failed")

// Server exposes a Directory over the line protocol.
type Server struct {
	svc *netsvc.Server
	dir *Directory

	user, pass string
}

// NewServer serves dir on addr.
func NewServer(dir *Directory, addr string) (*Server, error) {
	if dir == nil {
		return nil, errors.New("ldapdir: nil directory")
	}
	s := &Server{dir: dir, user: "cn=web", pass: "web"}
	svc, err := netsvc.Listen(addr, s.session)
	if err != nil {
		return nil, fmt.Errorf("ldapdir: listen %s: %w", addr, err)
	}
	s.svc = svc
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.svc.Addr() }

// Close stops the server and waits for sessions to end.
func (s *Server) Close() error { return s.svc.Close() }

func (s *Server) session(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	say := func(line string) bool {
		w.WriteString(line + "\r\n")
		return w.Flush() == nil
	}
	if !say("+OK ldapdir/1 ready") {
		return
	}
	for bound := false; ; {
		line, err := netsvc.ReadLine(r)
		if err != nil {
			if errors.Is(err, netsvc.ErrLineTooLong) {
				say("-ERR line too long")
			}
			return
		}
		cmd, rest, _ := strings.Cut(line, " ")
		if strings.ToUpper(cmd) == "QUIT" {
			say("+OK bye")
			return
		}
		reply, err := s.command(w, &bound, cmd, rest)
		if err != nil {
			reply = "-ERR " + err.Error()
		}
		if !say(reply) {
			return
		}
	}
}

// command runs one command other than QUIT: it writes the "*" lines of the
// reply to w and returns the status line, or the error to send as "-ERR".
func (s *Server) command(w *bufio.Writer, bound *bool, cmd, rest string) (string, error) {
	switch verb := strings.ToUpper(cmd); {
	case verb == "BIND":
		if user, pass, _ := strings.Cut(rest, " "); user != s.user || pass != s.pass {
			return "", ErrBindFailed
		}
		*bound = true
		return "+OK bound", nil
	case verb != "SEARCH" && verb != "ADD" && verb != "MODIFY" && verb != "DEL":
		return "", fmt.Errorf("unknown command %q", cmd)
	case !*bound:
		return "", ErrNotBound
	case verb == "SEARCH":
		fields := strings.SplitN(rest, " ", 3)
		if len(fields) < 2 {
			return "", errors.New("SEARCH <base> <scope> [filter]")
		}
		base, err := ParseDN(fields[0])
		if err != nil {
			return "", err
		}
		scope, err := ParseScope(fields[1])
		if err != nil {
			return "", err
		}
		var filter Filter
		if len(fields) == 3 && strings.TrimSpace(fields[2]) != "" {
			if filter, err = ParseFilter(fields[2]); err != nil {
				return "", err
			}
		}
		entries, err := s.dir.Search(base, scope, filter)
		if err != nil {
			return "", err
		}
		for _, e := range entries {
			fmt.Fprintf(w, "*ENTRY %s\r\n", e.DN)
			for name, vals := range e.Attrs {
				for _, v := range vals {
					fmt.Fprintf(w, "*ATTR %s %s\r\n", name, v)
				}
			}
		}
		return fmt.Sprintf("+OK %d entries", len(entries)), nil
	case verb == "DEL":
		dn, err := ParseDN(rest)
		if err != nil {
			return "", err
		}
		return "+OK deleted", s.dir.Delete(dn)
	default: // ADD or MODIFY
		dnText, attrText, _ := strings.Cut(rest, " ")
		dn, err := ParseDN(dnText)
		if err != nil {
			return "", err
		}
		attrs, err := ParseAttrList(attrText)
		if err != nil {
			return "", err
		}
		if verb == "ADD" {
			return "+OK added", s.dir.Add(dn, attrs)
		}
		return "+OK modified", s.dir.Modify(dn, attrs)
	}
}

// ParseAttrList parses the attribute list of an ADD or MODIFY line,
// "attr=val|attr=val|attr=": names are trimmed and lowercased, values are
// kept as written, several values for one name accumulate, and an empty
// value marks the attribute for deletion.
func ParseAttrList(s string) (map[string][]string, error) {
	attrs := make(map[string][]string)
	s = strings.TrimSpace(s)
	if s == "" {
		return attrs, nil
	}
	for _, pair := range strings.Split(s, "|") {
		attr, val, ok := strings.Cut(pair, "=")
		name := strings.ToLower(strings.TrimSpace(attr))
		if !ok || name == "" {
			return nil, fmt.Errorf("ldapdir: bad attribute %q", pair)
		}
		if val == "" {
			// Explicit deletion marker: ensure the key exists with nil.
			if _, present := attrs[name]; !present {
				attrs[name] = nil
			}
			continue
		}
		attrs[name] = append(attrs[name], val)
	}
	return attrs, nil
}
