package ldapdir

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"servicebroker/internal/netsvc"
)

// Client is a bound session with an ldapdir server. It is not safe for
// concurrent use.
type Client struct {
	line *netsvc.Client
}

// ErrServer wraps the server's "-ERR" reply to a command: the server refused
// it, and the session is still good.
var ErrServer = errors.New("ldapdir: server")

// Connect dials an ldapdir server, reads its greeting and binds as user. A
// zero timeout waits as long as the system allows.
func Connect(addr string, timeout time.Duration, user, pass string) (*Client, error) {
	line, err := netsvc.Dial(addr, timeout, "+OK")
	if err != nil {
		return nil, fmt.Errorf("ldapdir: %w", err)
	}
	c := &Client{line: line}
	if _, err := c.run("BIND", user+" "+pass); err != nil {
		line.Close()
		return nil, err
	}
	return c, nil
}

// Do sends one request in the server's own syntax — SEARCH, ADD, MODIFY or
// DEL; any other verb is refused before anything is written — and renders
// the reply: for SEARCH one block per entry, "dn: <dn>" and then
// "<name>: <value>" per attribute value, each block ended by an empty line;
// "ok" for the others.
func (c *Client) Do(payload []byte) ([]byte, error) {
	verb, rest := netsvc.SplitCommand(payload)
	switch verb {
	case "SEARCH", "ADD", "MODIFY", "DEL":
		return c.run(verb, rest)
	}
	return nil, fmt.Errorf("%w: unknown directory command %q", netsvc.ErrRefused, verb)
}

// run sends one command and renders its reply as Do describes.
func (c *Client) run(verb, rest string) ([]byte, error) {
	if err := c.line.Send(verb + " " + rest); err != nil {
		return nil, fmt.Errorf("ldapdir: %w", err)
	}
	out := []byte{}
	entry := false
	for {
		line, err := c.line.Line()
		if err != nil {
			return nil, fmt.Errorf("ldapdir: read: %w", err)
		}
		if dn, ok := strings.CutPrefix(line, "*ENTRY "); ok {
			if entry {
				out = append(out, '\n')
			}
			out = fmt.Appendf(out, "dn: %s\n", dn)
			entry = true
			continue
		}
		if attr, ok := strings.CutPrefix(line, "*ATTR "); ok {
			name, val, ok := strings.Cut(attr, " ")
			if !ok || !entry {
				return nil, fmt.Errorf("ldapdir: bad attribute line %q", line)
			}
			out = fmt.Appendf(out, "%s: %s\n", name, val)
			continue
		}
		if !strings.HasPrefix(line, "+OK") {
			return nil, fmt.Errorf("%w: %s", ErrServer, strings.TrimPrefix(line, "-ERR "))
		}
		if verb != "SEARCH" {
			return []byte("ok"), nil
		}
		if entry {
			out = append(out, '\n')
		}
		return out, nil
	}
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error { return c.line.Close() }
