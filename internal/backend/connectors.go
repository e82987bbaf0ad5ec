package backend

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"servicebroker/internal/httpserver"
	"servicebroker/internal/ldapdir"
	"servicebroker/internal/mailsvc"
	"servicebroker/internal/netsvc"
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
	sql, times := sqldb.ParseRepeat(payload)
	var (
		table []byte
		err   error
	)
	for i := 0; i < times; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if table, err = s.conn.Query(sql); err != nil {
			return nil, refusal(err, sqldb.ErrServer)
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
	user, pass := c.User, c.Pass
	if user == "" {
		user, pass = "cn=web", "web"
	}
	cli, err := ldapdir.Connect(c.Addr, c.DialTimeout, user, pass)
	if err != nil {
		return nil, err
	}
	return &lineSession{cli: cli, errServer: ldapdir.ErrServer}, nil
}

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
	return &lineSession{cli: cli, errServer: mailsvc.ErrServer}, nil
}

// lineSession is a directory or mail session. Its client relays each
// payload's reply; the server's own error reply (errServer) and the client's
// refusal to send a payload are permanent.
type lineSession struct {
	cli interface {
		Do(payload []byte) ([]byte, error)
		Close() error
	}
	errServer error
}

func (s *lineSession) Do(ctx context.Context, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out, err := s.cli.Do(payload)
	return out, refusal(err, s.errServer, netsvc.ErrRefused)
}

func (s *lineSession) Close() error { return s.cli.Close() }

// refusal marks err Permanent when it wraps one of refusals, the backend's
// own error reply or the client's refusal of the payload: the payload would
// be refused again, and the server is healthy.
func refusal(err error, refusals ...error) error {
	for _, r := range refusals {
		if errors.Is(err, r) {
			return resilience.Permanent(err)
		}
	}
	return err
}

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
