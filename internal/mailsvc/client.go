package mailsvc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"servicebroker/internal/netsvc"
)

// Client is a connection to a mailsvc server. Operations are serialized.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	closed bool
}

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("mailsvc: client closed")

// ErrServer wraps a server reply other than the one a command expects, such
// as a 5xx refusal.
var ErrServer = errors.New("mailsvc: server")

// Connect dials a mailsvc server, consumes the greeting, and sends HELO. A
// zero timeout waits as long as the system allows.
func Connect(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("mailsvc: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if _, err := c.expect("220"); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := c.cmd("250", "HELO client"); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) readLine() (string, error) {
	line, err := netsvc.ReadLine(c.r)
	if err != nil {
		return "", fmt.Errorf("mailsvc: read: %w", err)
	}
	return line, nil
}

// expect reads one line and verifies its status prefix.
func (c *Client) expect(code string) (string, error) {
	line, err := c.readLine()
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(line, code) {
		return "", fmt.Errorf("%w: %s", ErrServer, line)
	}
	return line, nil
}

// cmd sends a command line and expects the given status code.
func (c *Client) cmd(code, format string, args ...interface{}) (string, error) {
	if c.closed {
		return "", ErrClientClosed
	}
	fmt.Fprintf(c.w, format+"\r\n", args...)
	if err := c.w.Flush(); err != nil {
		return "", fmt.Errorf("mailsvc: write: %w", err)
	}
	return c.expect(code)
}

// Send submits one message.
func (c *Client) Send(from string, to []string, body string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.cmd("250", "MAIL FROM:<%s>", from); err != nil {
		return err
	}
	for _, rcpt := range to {
		if _, err := c.cmd("250", "RCPT TO:<%s>", rcpt); err != nil {
			return err
		}
	}
	if _, err := c.cmd("354", "DATA"); err != nil {
		return err
	}
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, ".") {
			l = "." + l
		}
		fmt.Fprintf(c.w, "%s\r\n", l)
	}
	fmt.Fprintf(c.w, ".\r\n")
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("mailsvc: write: %w", err)
	}
	_, err := c.expect("250")
	return err
}

// ListSummary is one LIST row.
type ListSummary struct {
	Seq  int
	From string
	Size int
}

// List returns the summaries for a mailbox.
func (c *Client) List(user string) ([]ListSummary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.cmd("250", "LIST %s", user); err != nil {
		return nil, err
	}
	var out []ListSummary
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if line == "." {
			return out, nil
		}
		parts := strings.Fields(line)
		if len(parts) != 3 {
			return nil, fmt.Errorf("mailsvc: bad list row %q", line)
		}
		seq, err1 := strconv.Atoi(parts[0])
		size, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("mailsvc: bad list row %q", line)
		}
		out = append(out, ListSummary{Seq: seq, From: parts[1], Size: size})
	}
}

// Retr fetches one message body.
func (c *Client) Retr(user string, seq int) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.cmd("250", "RETR %s %d", user, seq); err != nil {
		return "", err
	}
	var body []string
	for {
		line, err := c.readLine()
		if err != nil {
			return "", err
		}
		if line == "." {
			return strings.Join(body, "\n"), nil
		}
		body = append(body, strings.TrimPrefix(line, "."))
	}
}

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
