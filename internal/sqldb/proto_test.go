package sqldb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// referenceTable renders rs directly from its typed values: the table that
// ResultSet.String and Conn.Query must both print.
func referenceTable(rs *ResultSet) string {
	if len(rs.Columns) == 0 {
		return fmt.Sprintf("OK, %d row(s) affected", rs.Affected)
	}
	var b strings.Builder
	b.WriteString(strings.Join(rs.Columns, "\t") + "\n")
	for _, row := range rs.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = formatValue(v)
		}
		b.WriteString(strings.Join(parts, "\t") + "\n")
	}
	return b.String()
}

// overTheWire sends rs as a server session does and renders what a client
// session receives, as Conn.Query does.
func overTheWire(rs *ResultSet) (string, error) {
	var wire bytes.Buffer
	server, client := newBufferedConn(&wire), newBufferedConn(&wire)
	client.limit = maxBody
	frame, err := appendResult(server.start(frameResult), rs)
	if err != nil {
		return "", err
	}
	if err := server.send(frame); err != nil {
		return "", err
	}
	ft, body, err := client.recv()
	if err != nil {
		return "", err
	}
	if ft != frameResult {
		return "", fmt.Errorf("frame type %d", ft)
	}
	table, err := appendTable(nil, body)
	return string(table), err
}

func TestResultCodecRoundTrip(t *testing.T) {
	rs := &ResultSet{
		Columns:  []string{"id", "name", "score", "note"},
		Rows:     [][]Value{{int64(1), "a", 2.5, nil}, {int64(-7), "b", -0.5, "x"}},
		Affected: 3,
	}
	const want = "id\tname\tscore\tnote\n1\ta\t2.5\tNULL\n-7\tb\t-0.5\tx\n"
	got, err := overTheWire(rs)
	if err != nil || got != want {
		t.Fatalf("over the wire = %q, %v; want %q", got, err, want)
	}
	if s := rs.String(); s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
}

func TestResultCodecEmpty(t *testing.T) {
	for _, tc := range []struct {
		rs   *ResultSet
		want string
	}{
		{&ResultSet{Affected: 1}, "OK, 1 row(s) affected"},
		{&ResultSet{Affected: math.MaxUint32}, "OK, 4294967295 row(s) affected"},
		{&ResultSet{Columns: []string{"a", "b"}, Rows: [][]Value{}}, "a\tb\n"},
	} {
		if got, err := overTheWire(tc.rs); err != nil || got != tc.want {
			t.Errorf("over the wire = %q, %v; want %q", got, err, tc.want)
		}
	}
}

func TestResultCodecRejectsRaggedRows(t *testing.T) {
	rs := &ResultSet{Columns: []string{"a"}, Rows: [][]Value{{int64(1), int64(2)}}}
	if _, err := appendResult(nil, rs); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestDecodeResultRejectsTruncation(t *testing.T) {
	for _, rs := range []*ResultSet{
		{Columns: []string{"a", "b"}, Rows: [][]Value{{"hello", nil}, {int64(1), 2.5}}},
		{Affected: 7},
	} {
		body, err := appendResult(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(body); cut++ {
			if _, err := appendTable(nil, body[:cut]); !errors.Is(err, ErrProtocol) {
				t.Fatalf("%v cut at %d: err = %v, want ErrProtocol", rs, cut, err)
			}
		}
		if _, err := appendTable(nil, append(body, 0)); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%v: trailing byte err = %v, want ErrProtocol", rs, err)
		}
	}
}

// specialValues are the cells whose text forms are easiest to get wrong.
var specialValues = []Value{
	nil, int64(0), int64(-1), int64(math.MinInt64), int64(math.MaxInt64),
	0.1, 1e21, math.Copysign(0, -1), -2.5e-300, math.Inf(1), math.NaN(),
	"", "a\tb", "NULL", "two\nlines", "record-000042",
}

func randomText(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = "ab\t\n -9"[rng.Intn(7)]
	}
	return string(b)
}

func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return specialValues[rng.Intn(len(specialValues))]
	case 1:
		return rng.Int63() - rng.Int63()
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	case 3:
		return randomText(rng)
	default:
		return nil
	}
}

// Property: over random result sets, what the client renders from the wire
// and what ResultSet.String prints are the reference table, byte for byte.
func TestResultCodecProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := &ResultSet{Affected: rng.Intn(1 << 20)}
		if rng.Intn(5) > 0 { // otherwise affected-only
			rs.Columns = make([]string, 1+rng.Intn(4))
			for i := range rs.Columns {
				rs.Columns[i] = randomText(rng)
			}
			rs.Rows = make([][]Value, rng.Intn(6))
			for r := range rs.Rows {
				rs.Rows[r] = make([]Value, len(rs.Columns))
				for i := range rs.Rows[r] {
					rs.Rows[r][i] = randomValue(rng)
				}
			}
		}
		want := referenceTable(rs)
		got, err := overTheWire(rs)
		if err != nil || got != want || rs.String() != want {
			t.Logf("seed %d: wire %q (%v), String %q, want %q", seed, got, err, rs.String(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: appendTable never panics on arbitrary bytes.
func TestDecodeResultNeverPanicsProperty(t *testing.T) {
	f := func(body []byte) bool {
		_, _ = appendTable(nil, body)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeResult feeds arbitrary bytes to a session's frame reader and, when
// they frame a result, to appendTable: neither panics, the table is no longer
// than the body allows (a cell of n ≥ 4 bytes prints at most n+1), and a body
// that renders is rejected once cut short anywhere or given a byte more. Seeds
// are the replies to the four statement shapes of the benchmark workloads.
func FuzzDecodeResult(f *testing.F) {
	e := NewEngine()
	if err := LoadRecords(e, 3); err != nil {
		f.Fatal(err)
	}
	rs, err := e.Exec("SELECT category FROM records WHERE id = 0")
	if err != nil {
		f.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT id, name FROM records WHERE id = 2",
		fmt.Sprintf("SELECT id, name, score FROM records WHERE category = %d AND score BETWEEN 0 AND 1000", rs.Rows[0][0]),
		"UPDATE records SET score = 12.345 WHERE id = 1",
		"SELECT id, name, score, category FROM records",
	} {
		rs, err := e.Exec(sql)
		if err != nil {
			f.Fatal(err)
		}
		var wire bytes.Buffer
		bc := newBufferedConn(&wire)
		frame, err := appendResult(bc.start(frameResult), rs)
		if err != nil {
			f.Fatal(err)
		}
		if err := bc.send(frame); err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Bytes())
		f.Add(wire.Bytes()[:wire.Len()-1])
	}
	f.Add([]byte{0, 0, 0, 0, byte(frameResult)})
	// 0x30000000 rows of no columns in a ten-byte body.
	f.Add([]byte{0, 0, 0, 11, byte(frameResult), 0, 0, 0, 0, 0, 0, 0x30, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		bc := newBufferedConn(bytes.NewBuffer(data))
		bc.limit = maxBody
		ft, body, err := bc.recv()
		if err != nil || ft != frameResult {
			return
		}
		table, err := appendTable(nil, body)
		if err != nil {
			return
		}
		if most := len(body) + len(body)/4 + len("OK, 4294967295 row(s) affected"); len(table) > most {
			t.Fatalf("%d-byte body rendered %d bytes, more than %d", len(body), len(table), most)
		}
		// Every cut of a short body; about 256 of a long one, the last byte included.
		for cut := len(body) - 1; cut >= 0; cut -= 1 + len(body)/256 {
			if _, err := appendTable(nil, body[:cut]); err == nil {
				t.Fatalf("body cut at %d of %d rendered", cut, len(body))
			}
		}
		if _, err := appendTable(nil, append(body[:len(body):len(body)], 0)); err == nil {
			t.Fatal("body with a trailing byte rendered")
		}
	})
}

// Frames round-trip whatever their size, and a session keeps a frame buffer
// for the next frame only up to maxKeptBuffer.
func TestFrameRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	a, b := newBufferedConn(&wire), newBufferedConn(&wire)
	b.limit = maxBody
	for _, n := range []int{8, maxKeptBuffer + 1, 100} {
		body := bytes.Repeat([]byte{'q'}, n)
		if err := a.send(append(a.start(frameQuery), body...)); err != nil {
			t.Fatal(err)
		}
		ft, got, err := b.recv()
		if err != nil || ft != frameQuery || !bytes.Equal(got, body) {
			t.Fatalf("%d-byte frame = %d, %d bytes, %v", n, ft, len(got), err)
		}
		if kept := n <= maxKeptBuffer; (cap(a.wbuf) > 0) != kept || (cap(b.rbuf) > 0) != kept {
			t.Fatalf("after a %d-byte frame the session keeps buffers of %d and %d bytes", n, cap(a.wbuf), cap(b.rbuf))
		}
	}
}

func TestReadFrameRejectsBadLength(t *testing.T) {
	for _, tc := range []struct {
		name          string
		length        uint32
		authenticated bool
	}{
		{"zero", 0, true},
		{"over the handshake bound", maxHandshakeBody + 1, false},
		{"over the session bound", maxBody + 1, true},
	} {
		wire := bytes.NewBuffer([]byte{byte(tc.length >> 24), byte(tc.length >> 16), byte(tc.length >> 8), byte(tc.length), byte(frameQuery)})
		bc := newBufferedConn(wire)
		if tc.authenticated {
			bc.limit = maxBody
		}
		if _, _, err := bc.recv(); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", tc.name, err)
		}
	}
}

// A peer that announces a 64 MiB frame and sends only its five-byte header
// makes the server allocate next to nothing, before authentication and after.
func TestFrameHeaderAloneAllocatesLittle(t *testing.T) {
	srv := startServer(t)
	for _, authenticate := range []bool{false, true} {
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if authenticate {
			if _, err := ConnectConn(nc, "web", "web"); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := nc.Write([]byte{0x03, 0xff, 0xff, 0xff, byte(frameQuery)}); err != nil {
			t.Fatal(err)
		}
		if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		// The server closes the session once the body fails to arrive.
		var sink [64]byte
		for err == nil {
			_, err = nc.Read(sink[:])
		}
		runtime.ReadMemStats(&after)
		nc.Close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("authenticated=%v: a frame header allocated %d bytes", authenticate, grew)
		}
	}
}

// startServer spins up an engine+server for protocol tests.
func startServer(t *testing.T, opts ...ServerOption) *Server {
	t.Helper()
	e := NewEngine()
	if _, err := e.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("INSERT INTO kv VALUES (1, 'one'), (2, 'two')"); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(e, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestClientServerQuery(t *testing.T) {
	srv := startServer(t)
	conn, err := Connect(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for _, tc := range []struct{ sql, want string }{
		{"SELECT v FROM kv WHERE k = 2", "v\ntwo\n"},
		{"INSERT INTO kv VALUES (3, 'three')", "OK, 1 row(s) affected"},
		{"SELECT k, v FROM kv WHERE k > 1 ORDER BY k", "k\tv\n2\ttwo\n3\tthree\n"},
		{"SELECT COUNT(*), AVG(k), MAX(v) FROM kv WHERE k > 9", "count\tavg\tmax\n0\tNULL\tNULL\n"},
	} {
		got, err := conn.Query(tc.sql)
		if err != nil || string(got) != tc.want {
			t.Fatalf("Query(%s) = %q, %v; want %q", tc.sql, got, err, tc.want)
		}
		if len(got) != cap(got) {
			t.Fatalf("Query(%s) returned %d bytes in a %d-byte slice", tc.sql, len(got), cap(got))
		}
		if strings.HasPrefix(tc.sql, "SELECT") {
			rs, err := srv.engine.Exec(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if rs.String() != tc.want {
				t.Fatalf("engine's String() for %s = %q", tc.sql, rs.String())
			}
		}
	}
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestClientServerQueryError(t *testing.T) {
	srv := startServer(t)
	conn, err := Connect(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query("SELECT * FROM missing"); err == nil {
		t.Fatal("query on missing table succeeded")
	}
	// Session survives an error response.
	if got, err := conn.Query("SELECT k FROM kv"); err != nil || string(got) != "k\n1\n2\n" {
		t.Fatalf("after an error: %q, %v", got, err)
	}
}

func TestAuthFailure(t *testing.T) {
	srv := startServer(t, WithCredentials("admin", "secret"))
	if _, err := Connect(srv.Addr().String()); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v, want ErrAuthFailed", err)
	}
	conn, err := Connect(srv.Addr().String(), WithAuth("admin", "secret"))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
}

func TestHandshakeDelayApplied(t *testing.T) {
	const delay = 30 * time.Millisecond
	srv := startServer(t, WithHandshakeDelay(delay))
	start := time.Now()
	conn, err := Connect(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("connect took %v, want ≥ %v", elapsed, delay)
	}
	// Queries on the established connection do NOT pay the delay again.
	start = time.Now()
	if _, err := conn.Query("SELECT k FROM kv"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > delay {
		t.Fatalf("query took %v, should not pay handshake delay", elapsed)
	}
}

func TestExecSlotsSerializeQueries(t *testing.T) {
	const qd = 20 * time.Millisecond
	srv := startServer(t, WithExecSlots(1), WithQueryDelay(qd))

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := Connect(srv.Addr().String())
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			defer conn.Close()
			if _, err := conn.Query("SELECT k FROM kv"); err != nil {
				t.Errorf("query: %v", err)
			}
		}()
	}
	wg.Wait()
	// With one slot, three queries serialize: ≥ 3 × 20ms.
	if elapsed := time.Since(start); elapsed < 3*qd {
		t.Fatalf("3 queries on 1 slot took %v, want ≥ %v", elapsed, 3*qd)
	}
}

func TestServerMetrics(t *testing.T) {
	srv := startServer(t)
	// Every metric is registered before the first session, so it is exported
	// at zero.
	view := srv.Metrics().View()
	for _, name := range []string{"connections", "auth_failures", "queries", "query_errors"} {
		if v, ok := view.Counters[name]; !ok || v != 0 {
			t.Errorf("counter %s at start = %d, registered %v; want 0, true", name, v, ok)
		}
	}
	if _, ok := view.Histograms["query_time"]; !ok {
		t.Error("histogram query_time not registered at start")
	}
	conn, err := Connect(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Query("SELECT k FROM kv")
	conn.Query("SELECT * FROM missing")
	reg := srv.Metrics()
	if got := reg.Counter("queries").Value(); got != 2 {
		t.Fatalf("queries = %d, want 2", got)
	}
	if got := reg.Counter("query_errors").Value(); got != 1 {
		t.Fatalf("query_errors = %d, want 1", got)
	}
	if got := reg.Counter("connections").Value(); got != 1 {
		t.Fatalf("connections = %d, want 1", got)
	}
}

func TestConnClosedOperations(t *testing.T) {
	srv := startServer(t)
	conn, err := Connect(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := conn.Query("SELECT k FROM kv"); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("query err = %v, want ErrConnClosed", err)
	}
	if err := conn.Ping(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("ping err = %v, want ErrConnClosed", err)
	}
	conn.Close() // idempotent
}

func TestServerCloseTerminatesSessions(t *testing.T) {
	srv := startServer(t)
	conn, err := Connect(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("SELECT k FROM kv"); err == nil {
		t.Fatal("query succeeded after server close")
	}
	srv.Close() // idempotent
}

func TestConcurrentClients(t *testing.T) {
	srv := startServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := Connect(srv.Addr().String())
			if err != nil {
				t.Errorf("connect %d: %v", i, err)
				return
			}
			defer conn.Close()
			for j := 0; j < 20; j++ {
				got, err := conn.Query("SELECT v FROM kv WHERE k = 1")
				if err != nil {
					t.Errorf("client %d query %d: %v", i, j, err)
					return
				}
				if string(got) != "v\none\n" {
					t.Errorf("client %d query %d: %q", i, j, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestNewServerRejectsNilEngine(t *testing.T) {
	if _, err := NewServer(nil, "127.0.0.1:0"); err == nil {
		t.Fatal("NewServer(nil) succeeded")
	}
}
