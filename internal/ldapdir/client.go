package ldapdir

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"servicebroker/internal/netsvc"
)

// Client is a connection to an ldapdir server. Operations on one Client are
// serialized. Use Connect, then Bind before other operations.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	closed bool
}

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("ldapdir: client closed")

// ErrServer wraps the server's "-ERR" reply to a command: the server refused
// it, and the session is still good.
var ErrServer = errors.New("ldapdir: server")

// Connect dials an ldapdir server and consumes the greeting. A zero timeout
// waits as long as the system allows.
func Connect(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ldapdir: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	line, err := c.readLine()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !strings.HasPrefix(line, "+OK") {
		conn.Close()
		return nil, fmt.Errorf("ldapdir: unexpected greeting %q", line)
	}
	return c, nil
}

func (c *Client) readLine() (string, error) {
	line, err := netsvc.ReadLine(c.r)
	if err != nil {
		return "", fmt.Errorf("ldapdir: read: %w", err)
	}
	return line, nil
}

// command sends one line and returns the first response line.
func (c *Client) command(format string, args ...interface{}) (string, error) {
	if c.closed {
		return "", ErrClientClosed
	}
	fmt.Fprintf(c.w, format+"\r\n", args...)
	if err := c.w.Flush(); err != nil {
		return "", fmt.Errorf("ldapdir: write: %w", err)
	}
	return c.readLine()
}

// checkOK converts "-ERR ..." into an error.
func checkOK(line string) error {
	if strings.HasPrefix(line, "+OK") {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrServer, strings.TrimPrefix(line, "-ERR "))
}

// exec runs a command whose reply is one status line.
func (c *Client) exec(format string, args ...interface{}) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	line, err := c.command(format, args...)
	if err != nil {
		return err
	}
	return checkOK(line)
}

// Bind authenticates the session.
func (c *Client) Bind(user, pass string) error { return c.exec("BIND %s %s", user, pass) }

// Search runs a search and returns the matching entries.
func (c *Client) Search(base string, scope Scope, filter string) ([]*Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	scopeName := map[Scope]string{ScopeBase: "base", ScopeOne: "one", ScopeSub: "sub"}[scope]
	if scopeName == "" {
		return nil, ErrNotEmptyScope
	}
	line, err := c.command("SEARCH %s %s %s", base, scopeName, filter)
	if err != nil {
		return nil, err
	}
	var entries []*Entry
	var cur *Entry
	for {
		switch {
		case strings.HasPrefix(line, "*ENTRY "):
			dn, err := ParseDN(strings.TrimPrefix(line, "*ENTRY "))
			if err != nil {
				return nil, err
			}
			cur = &Entry{DN: dn, Attrs: make(map[string][]string)}
			entries = append(entries, cur)
		case strings.HasPrefix(line, "*ATTR "):
			if cur == nil {
				return nil, errors.New("ldapdir: attribute before entry")
			}
			rest := strings.TrimPrefix(line, "*ATTR ")
			name, val, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("ldapdir: bad attr line %q", line)
			}
			cur.Attrs[name] = append(cur.Attrs[name], val)
		default:
			if err := checkOK(line); err != nil {
				return nil, err
			}
			return entries, nil
		}
		if line, err = c.readLine(); err != nil {
			return nil, err
		}
	}
}

// Add creates an entry. attrs uses the wire "a=v|a=v" form semantics.
func (c *Client) Add(dn string, attrs map[string][]string) error {
	return c.exec("ADD %s %s", dn, encodeAttrList(attrs))
}

// Modify replaces attributes on an entry; nil slices delete.
func (c *Client) Modify(dn string, attrs map[string][]string) error {
	return c.exec("MODIFY %s %s", dn, encodeAttrList(attrs))
}

// Delete removes a leaf entry.
func (c *Client) Delete(dn string) error { return c.exec("DEL %s", dn) }

// Close ends the session.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	fmt.Fprintf(c.w, "QUIT\r\n")
	c.w.Flush()
	return c.conn.Close()
}

func encodeAttrList(attrs map[string][]string) string {
	var parts []string
	for name, vals := range attrs {
		if len(vals) == 0 {
			parts = append(parts, name+"=")
			continue
		}
		for _, v := range vals {
			parts = append(parts, name+"="+v)
		}
	}
	return strings.Join(parts, "|")
}
