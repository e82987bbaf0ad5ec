package backend

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"servicebroker/internal/httpserver"
	"servicebroker/internal/ldapdir"
	"servicebroker/internal/mailsvc"
	"servicebroker/internal/resilience"
	"servicebroker/internal/sqldb"
)

// SQLConnector reaches a sqldb server. Payloads are SQL text, optionally
// wrapped by sqldb.RepeatQuery — the clustering experiment's "repeat the
// same workload multiple times" directive is honored here, in the backend
// access script's role.
type SQLConnector struct {
	// Addr is the sqldb server address.
	Addr string
	// User and Pass authenticate the handshake; empty means the defaults.
	User, Pass string
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
}

var _ Connector = (*SQLConnector)(nil)

// Name implements Connector.
func (c *SQLConnector) Name() string { return "db" }

// Connect implements Connector: it pays the full TCP + handshake cost.
func (c *SQLConnector) Connect(ctx context.Context) (Session, error) {
	opts := []sqldb.ConnectOption{}
	if c.User != "" {
		opts = append(opts, sqldb.WithAuth(c.User, c.Pass))
	}
	if c.DialTimeout > 0 {
		opts = append(opts, sqldb.WithDialTimeout(c.DialTimeout))
	}
	type result struct {
		conn *sqldb.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := sqldb.Connect(c.Addr, opts...)
		ch <- result{conn, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		return &sqlSession{conn: r.conn}, nil
	case <-ctx.Done():
		go func() {
			if r := <-ch; r.conn != nil {
				r.conn.Close()
			}
		}()
		return nil, ctx.Err()
	}
}

type sqlSession struct {
	conn *sqldb.Conn
}

// Do executes SQL, honoring the /*repeat=N*/ clustering directive: the query
// runs N times (modelling N clustered application requests worth of work)
// and the final result is returned as the text table Conn.Query renders.
func (s *sqlSession) Do(ctx context.Context, payload []byte) ([]byte, error) {
	sql, times := sqldb.ParseRepeat(string(payload))
	var (
		table []byte
		err   error
	)
	for i := 0; i < times; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if table, err = s.conn.Query(sql); err != nil {
			return nil, err
		}
	}
	return table, nil
}

func (s *sqlSession) Close() error { return s.conn.Close() }

// DirConnector reaches an ldapdir server. Payload syntax:
//
//	SEARCH <base> <base|one|sub> [filter]
//	ADD <dn> <attr=val|...>
//	MODIFY <dn> <attr=val|...>
//	DEL <dn>
type DirConnector struct {
	Addr        string
	User, Pass  string
	DialTimeout time.Duration
}

var _ Connector = (*DirConnector)(nil)

// Name implements Connector.
func (c *DirConnector) Name() string { return "dir" }

// Connect implements Connector: TCP setup plus the BIND round trip.
func (c *DirConnector) Connect(ctx context.Context) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cli, err := ldapdir.Connect(c.Addr, c.DialTimeout)
	if err != nil {
		return nil, err
	}
	user, pass := c.User, c.Pass
	if user == "" {
		user, pass = "cn=web", "web"
	}
	if err := cli.Bind(user, pass); err != nil {
		cli.Close()
		return nil, err
	}
	return &dirSession{cli: cli}, nil
}

type dirSession struct {
	cli *ldapdir.Client
}

func (s *dirSession) Do(ctx context.Context, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cmd, rest := SplitCommand(payload)
	switch cmd {
	case "SEARCH":
		fields := strings.SplitN(rest, " ", 3)
		if len(fields) < 2 {
			return nil, resilience.Permanent(fmt.Errorf("backend: SEARCH needs base and scope"))
		}
		scope, err := ldapdir.ParseScope(fields[1])
		if err != nil {
			return nil, err
		}
		filter := ""
		if len(fields) == 3 {
			filter = fields[2]
		}
		entries, err := s.cli.Search(fields[0], scope, filter)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		for _, e := range entries {
			fmt.Fprintf(&b, "dn: %s\n", e.DN)
			for name, vals := range e.Attrs {
				for _, v := range vals {
					fmt.Fprintf(&b, "%s: %s\n", name, v)
				}
			}
			b.WriteByte('\n')
		}
		return []byte(b.String()), nil
	case "ADD", "MODIFY":
		dn, attrText, _ := strings.Cut(rest, " ")
		attrs := map[string][]string{}
		if strings.TrimSpace(attrText) != "" {
			for _, pair := range strings.Split(attrText, "|") {
				name, val, ok := strings.Cut(pair, "=")
				if !ok {
					return nil, resilience.Permanent(fmt.Errorf("backend: bad attribute %q", pair))
				}
				if val == "" {
					attrs[name] = nil
					continue
				}
				attrs[name] = append(attrs[name], val)
			}
		}
		var err error
		if cmd == "ADD" {
			err = s.cli.Add(dn, attrs)
		} else {
			err = s.cli.Modify(dn, attrs)
		}
		if err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	case "DEL":
		if err := s.cli.Delete(rest); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	default:
		return nil, resilience.Permanent(fmt.Errorf("backend: unknown dir command %q", cmd))
	}
}

func (s *dirSession) Close() error { return s.cli.Close() }

// MailConnector reaches a mailsvc server. Payload syntax:
//
//	SEND <from> <to[,to...]> <body...>
//	LIST <user>
//	RETR <user> <seq>
type MailConnector struct {
	Addr        string
	DialTimeout time.Duration
}

var _ Connector = (*MailConnector)(nil)

// Name implements Connector.
func (c *MailConnector) Name() string { return "mail" }

// Connect implements Connector: TCP setup plus the HELO round trip.
func (c *MailConnector) Connect(ctx context.Context) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cli, err := mailsvc.Connect(c.Addr, c.DialTimeout)
	if err != nil {
		return nil, err
	}
	return &mailSession{cli: cli}, nil
}

type mailSession struct {
	cli *mailsvc.Client
}

func (s *mailSession) Do(ctx context.Context, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cmd, rest := SplitCommand(payload)
	switch cmd {
	case "SEND":
		from, rest, _ := strings.Cut(rest, " ")
		toList, body, _ := strings.Cut(rest, " ")
		if from == "" || toList == "" {
			return nil, resilience.Permanent(fmt.Errorf("backend: SEND <from> <to,...> <body>"))
		}
		if err := s.cli.Send(from, strings.Split(toList, ","), body); err != nil {
			return nil, err
		}
		return []byte("sent"), nil
	case "LIST":
		sums, err := s.cli.List(rest)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		for _, m := range sums {
			fmt.Fprintf(&b, "%d %s %d\n", m.Seq, m.From, m.Size)
		}
		return []byte(b.String()), nil
	case "RETR":
		user, seqText, _ := strings.Cut(rest, " ")
		seq, err := strconv.Atoi(strings.TrimSpace(seqText))
		if err != nil {
			return nil, resilience.Permanent(fmt.Errorf("backend: RETR needs a sequence number: %w", err))
		}
		body, err := s.cli.Retr(user, seq)
		if err != nil {
			return nil, err
		}
		return []byte(body), nil
	default:
		return nil, resilience.Permanent(fmt.Errorf("backend: unknown mail command %q", cmd))
	}
}

func (s *mailSession) Close() error { return s.cli.Close() }

// WebConnector reaches a (possibly loosely coupled) web backend over HTTP.
// Payloads are one URI per line; multi-line payloads are fetched with a
// single MGET (paper §III: "two separate accesses ... can be combined using
// MGET"). A single-URI request returns the raw body; a multi-URI request
// returns the multipart MGET encoding (httpserver.EncodeMGetParts) so the
// broker's clustering engine can split it losslessly.
type WebConnector struct {
	Addr string
	// ServiceName overrides the default name "web" (syndicates register one
	// connector per provider).
	ServiceName string
	Timeout     time.Duration
	// Dial substitutes the dialer (e.g. a netsim WAN profile).
	Dial func(network, address string) (net.Conn, error)
}

var _ Connector = (*WebConnector)(nil)

// Name implements Connector.
func (c *WebConnector) Name() string {
	if c.ServiceName != "" {
		return c.ServiceName
	}
	return "web"
}

// Connect implements Connector. The session holds one persistent HTTP
// connection (pool size 1).
func (c *WebConnector) Connect(ctx context.Context) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts := []httpserver.ClientOption{httpserver.WithPersistent(1)}
	if c.Timeout > 0 {
		opts = append(opts, httpserver.WithTimeout(c.Timeout))
	}
	if c.Dial != nil {
		opts = append(opts, httpserver.WithDial(c.Dial))
	}
	return &webSession{cli: httpserver.NewClient(c.Addr, opts...)}, nil
}

type webSession struct {
	cli *httpserver.Client
}

func (s *webSession) Do(ctx context.Context, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	uris := splitLines(string(payload))
	if len(uris) == 0 {
		return nil, resilience.Permanent(fmt.Errorf("backend: empty web payload"))
	}
	if len(uris) == 1 {
		path, rawQuery, _ := strings.Cut(uris[0], "?")
		resp, err := s.cli.Get(path+querySuffix(rawQuery), nil)
		if err != nil {
			return nil, err
		}
		if resp.Status != 200 {
			err := fmt.Errorf("backend: web status %d: %s", resp.Status, resp.Body)
			if resp.Status < 500 {
				// Client errors are the payload's fault; retrying the
				// identical request cannot succeed.
				err = resilience.Permanent(err)
			}
			return nil, err
		}
		return resp.Body, nil
	}
	parts, err := s.cli.MGet(uris)
	if err != nil {
		return nil, err
	}
	responses := make([]*httpserver.Response, len(parts))
	for i, p := range parts {
		responses[i] = httpserver.NewResponse(p.Status, p.Body)
	}
	return httpserver.EncodeMGetParts(uris, responses), nil
}

func querySuffix(rawQuery string) string {
	if rawQuery == "" {
		return ""
	}
	return "?" + rawQuery
}

func (s *webSession) Close() error { return s.cli.Close() }

func splitLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		l = strings.TrimSpace(l)
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}
