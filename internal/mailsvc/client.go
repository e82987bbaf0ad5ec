package mailsvc

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"servicebroker/internal/netsvc"
)

// Client is a greeted session with a mailsvc server. It is not safe for
// concurrent use.
type Client struct {
	line *netsvc.Client
}

// ErrServer wraps a server reply other than the one a command expects, such
// as a 5xx refusal.
var ErrServer = errors.New("mailsvc: server")

// Connect dials a mailsvc server, reads its greeting, and sends HELO. A zero
// timeout waits as long as the system allows.
func Connect(addr string, timeout time.Duration) (*Client, error) {
	line, err := netsvc.Dial(addr, timeout, "220")
	if err != nil {
		return nil, fmt.Errorf("mailsvc: %w", err)
	}
	c := &Client{line: line}
	if err := c.exchange("250", "HELO client"); err != nil {
		line.Close()
		return nil, err
	}
	return c, nil
}

// Do sends one request — any verb but these three is refused before anything
// is written — and renders the reply:
//
//	SEND <from> <to[,to...]> <body...>   MAIL, RCPT per recipient, DATA with
//	                                     the body's lines dot-stuffed; "sent"
//	LIST <user>                          the rows, "<seq> <from> <size>\n" each
//	RETR <user> <seq>                    the body, its lines joined by "\n"
func (c *Client) Do(payload []byte) ([]byte, error) {
	verb, rest := netsvc.SplitCommand(payload)
	switch verb {
	case "SEND":
		return c.send(rest)
	case "LIST", "RETR":
		if err := c.exchange("250", verb+" "+rest); err != nil {
			return nil, err
		}
		// The reply's lines run to a "."; dot-stuffing is undone.
		var lines []string
		for {
			line, err := c.line.Line()
			if err != nil {
				return nil, fmt.Errorf("mailsvc: read: %w", err)
			}
			if line == "." {
				break
			}
			lines = append(lines, strings.TrimPrefix(line, "."))
		}
		if verb == "LIST" {
			lines = append(lines, "") // each row ends with "\n"
		}
		return []byte(strings.Join(lines, "\n")), nil
	}
	return nil, fmt.Errorf("%w: unknown mail command %q", netsvc.ErrRefused, verb)
}

// send submits one message. Every line it would write is checked before the
// first goes out, so a refused request leaves the session where it was.
func (c *Client) send(rest string) ([]byte, error) {
	from, rest, _ := strings.Cut(rest, " ")
	to, body, _ := strings.Cut(rest, " ")
	if from == "" || to == "" {
		return nil, fmt.Errorf("%w: SEND <from> <to,...> <body>", netsvc.ErrRefused)
	}
	envelope := []string{"MAIL FROM:<" + from + ">"}
	for _, rcpt := range strings.Split(to, ",") {
		envelope = append(envelope, "RCPT TO:<"+rcpt+">")
	}
	var data []string
	for _, l := range strings.Split(body, "\n") {
		// A body may end its lines CRLF as well as LF.
		l = strings.TrimSuffix(l, "\r")
		if strings.HasPrefix(l, ".") {
			l = "." + l
		}
		data = append(data, l)
	}
	data = append(data, ".")
	if err := netsvc.CheckLines(append(envelope, data...)...); err != nil {
		return nil, fmt.Errorf("mailsvc: %w", err)
	}
	for _, l := range envelope {
		if err := c.exchange("250", l); err != nil {
			return nil, err
		}
	}
	if err := c.exchange("354", "DATA"); err != nil {
		return nil, err
	}
	if err := c.exchange("250", data...); err != nil {
		return nil, err
	}
	return []byte("sent"), nil
}

// exchange writes lines and reads one reply line, which must begin with code.
func (c *Client) exchange(code string, lines ...string) error {
	if err := c.line.Send(lines...); err != nil {
		return fmt.Errorf("mailsvc: %w", err)
	}
	reply, err := c.line.Line()
	if err != nil {
		return fmt.Errorf("mailsvc: read: %w", err)
	}
	if !strings.HasPrefix(reply, code) {
		return fmt.Errorf("%w: %s", ErrServer, reply)
	}
	return nil
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error { return c.line.Close() }
