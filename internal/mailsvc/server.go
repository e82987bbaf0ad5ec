package mailsvc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"servicebroker/internal/netsvc"
)

// The mailsvc protocol borrows SMTP's submission verbs and adds two
// retrieval verbs:
//
//	S: 220 mailsvc ready
//	C: HELO <host>            S: 250 hello
//	C: MAIL FROM:<addr>       S: 250 ok
//	C: RCPT TO:<addr>         S: 250 ok          (repeatable)
//	C: DATA                   S: 354 end with .
//	C: ...body lines... .     S: 250 delivered <n>
//	C: LIST <user>            S: 250 <n> messages, then one line per message
//	C: RETR <user> <seq>      S: 250 ok, then body lines, then "."
//	C: QUIT                   S: 221 bye
//
// Errors use 5xx codes. HELO is mandatory before anything else — the greeting
// round trip is the connection-setup cost brokers amortize.
//
// Three caps bound what a session holds:
//   - a line, in either direction, is at most 64 KiB; the server answers a
//     longer one with "500 line too long" and ends the session, and the
//     client fails with netsvc.ErrLineTooLong;
//   - a message body is at most 1 MiB; past it the server answers
//     "552 message too large" and ends the session;
//   - a message has at most 100 recipients, RFC 5321's minimum; a RCPT past
//     them is answered "452 too many recipients" and the session goes on.

const (
	maxMessageBytes = 1 << 20
	maxRecipients   = 100
)

// Server exposes a Store over the mailsvc protocol.
type Server struct {
	svc   *netsvc.Server
	store *Store
}

// NewServer serves store on addr.
func NewServer(store *Store, addr string) (*Server, error) {
	if store == nil {
		return nil, errors.New("mailsvc: nil store")
	}
	s := &Server{store: store}
	svc, err := netsvc.Listen(addr, s.session)
	if err != nil {
		return nil, fmt.Errorf("mailsvc: listen %s: %w", addr, err)
	}
	s.svc = svc
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.svc.Addr() }

// Close stops the server and waits for sessions.
func (s *Server) Close() error { return s.svc.Close() }

// angleAddr strips an optional <...> wrapper.
func angleAddr(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "<")
	return strings.TrimSuffix(s, ">")
}

func (s *Server) session(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	// Replies are buffered: the loop flushes each command's reply before it
	// reads the next line, and a session that ends flushes what it said last.
	defer w.Flush()
	say := func(format string, args ...interface{}) {
		fmt.Fprintf(w, format+"\r\n", args...)
	}
	readLine := func() (string, bool) {
		line, err := netsvc.ReadLine(r)
		if errors.Is(err, netsvc.ErrLineTooLong) {
			say("500 line too long")
		}
		return line, err == nil
	}
	var (
		greeted bool
		from    string
		rcpts   []string
	)
	say("220 mailsvc ready")
	for w.Flush() == nil {
		line, ok := readLine()
		if !ok {
			return
		}
		verb, rest, _ := strings.Cut(line, " ")
		switch v := strings.ToUpper(verb); {
		case v == "QUIT":
			say("221 bye")
			return
		case v == "HELO":
			greeted = true
			say("250 hello")
		case !greeted && (v == "MAIL" || v == "LIST" || v == "RETR"):
			say("503 HELO first")
		case v == "MAIL":
			if addr := angleAddr(strings.TrimPrefix(rest, "FROM:")); !ValidAddress(addr) {
				say("553 bad sender %q", addr)
			} else {
				from, rcpts = addr, nil
				say("250 ok")
			}
		case v == "RCPT":
			addr := angleAddr(strings.TrimPrefix(rest, "TO:"))
			switch {
			case from == "":
				say("503 MAIL first")
			case !ValidAddress(addr):
				say("553 bad recipient %q", addr)
			case len(rcpts) == maxRecipients:
				say("452 too many recipients")
			default:
				rcpts = append(rcpts, addr)
				say("250 ok")
			}
		case v == "DATA" && len(rcpts) == 0:
			say("503 RCPT first")
		case v == "DATA":
			say("354 end with .")
			if w.Flush() != nil {
				return
			}
			// The body's lines are kept as read and joined once, so a refused
			// body costs no more than the lines it kept.
			var lines []string
			for size := 0; ; {
				l, ok := readLine()
				if !ok {
					return
				}
				if l == "." {
					break
				}
				// Dot-stuffing: a leading ".." encodes a literal ".".
				l = strings.TrimPrefix(l, ".")
				if size += len(l) + 1; size > maxMessageBytes {
					say("552 message too large")
					return
				}
				lines = append(lines, l)
			}
			if n, err := s.store.Deliver(from, rcpts, strings.Join(lines, "\n")); err != nil {
				say("554 %s", err)
			} else {
				from, rcpts = "", nil
				say("250 delivered %d", n)
			}
		case v == "LIST":
			msgs, err := s.store.List(strings.TrimSpace(rest))
			if err != nil {
				say("550 %s", err)
				break
			}
			say("250 %d messages", len(msgs))
			for _, m := range msgs {
				say("%d %s %d", m.Seq, m.From, len(m.Body))
			}
			say(".")
		case v == "RETR":
			user, seqText, _ := strings.Cut(strings.TrimSpace(rest), " ")
			seq, err := strconv.Atoi(strings.TrimSpace(seqText))
			if err != nil {
				say("501 bad sequence %q", seqText)
				break
			}
			m, err := s.store.Retr(user, seq)
			if err != nil {
				say("550 %s", err)
				break
			}
			say("250 ok from %s", m.From)
			for _, l := range strings.Split(m.Body, "\n") {
				if strings.HasPrefix(l, ".") {
					l = "." + l
				}
				say("%s", l)
			}
			say(".")
		default:
			say("500 unknown verb %q", verb)
		}
	}
}
