package sqldb

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestResultCodecRoundTrip(t *testing.T) {
	rs := &ResultSet{
		Columns:  []string{"id", "name", "score", "note"},
		Rows:     [][]Value{{int64(1), "a", 2.5, nil}, {int64(-7), "b", -0.5, "x"}},
		Affected: 3,
	}
	body, err := encodeResult(rs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Affected != rs.Affected || len(got.Rows) != 2 || len(got.Columns) != 4 {
		t.Fatalf("decoded %+v", got)
	}
	for i := range rs.Rows {
		for j := range rs.Rows[i] {
			if got.Rows[i][j] != rs.Rows[i][j] {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, got.Rows[i][j], rs.Rows[i][j])
			}
		}
	}
}

func TestResultCodecEmpty(t *testing.T) {
	body, err := encodeResult(&ResultSet{Affected: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Affected != 1 || len(got.Columns) != 0 || len(got.Rows) != 0 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestResultCodecRejectsRaggedRows(t *testing.T) {
	rs := &ResultSet{Columns: []string{"a"}, Rows: [][]Value{{int64(1), int64(2)}}}
	if _, err := encodeResult(rs); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestDecodeResultRejectsTruncation(t *testing.T) {
	rs := &ResultSet{Columns: []string{"a"}, Rows: [][]Value{{"hello"}}}
	body, _ := encodeResult(rs)
	for cut := 0; cut < len(body); cut++ {
		if _, err := decodeResult(body[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, err := decodeResult(append(body, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// Property: result sets with arbitrary (bounded) contents round-trip.
func TestResultCodecProperty(t *testing.T) {
	f := func(ints []int64, strs []string, affected uint16) bool {
		if len(ints) > 50 || len(strs) > 50 {
			return true
		}
		rs := &ResultSet{Columns: []string{"i", "s"}, Affected: int(affected)}
		n := len(ints)
		if len(strs) < n {
			n = len(strs)
		}
		for i := 0; i < n; i++ {
			rs.Rows = append(rs.Rows, []Value{ints[i], strs[i]})
		}
		body, err := encodeResult(rs)
		if err != nil {
			return false
		}
		got, err := decodeResult(body)
		if err != nil || got.Affected != rs.Affected || len(got.Rows) != len(rs.Rows) {
			return false
		}
		for i := range rs.Rows {
			if got.Rows[i][0] != rs.Rows[i][0] || got.Rows[i][1] != rs.Rows[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decodeResult never panics on arbitrary bytes.
func TestDecodeResultNeverPanicsProperty(t *testing.T) {
	f := func(body []byte) bool {
		_, _ = decodeResult(body)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeResult feeds arbitrary bytes to readFrame and, when they frame a
// result, to decodeResult: neither panics, and an accepted result body
// re-encodes to the bytes it was decoded from. Seeds are the replies to the
// benchmark workloads' statements over the fixture.
func FuzzDecodeResult(f *testing.F) {
	e := NewEngine()
	if err := LoadRecords(e, 3); err != nil {
		f.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT id, name FROM records WHERE id = 2",
		"SELECT id, name, score, category FROM records",
		"UPDATE records SET score = 12.345 WHERE id = 1",
		"SELECT COUNT(*), AVG(score) FROM records WHERE id > 5",
	} {
		rs, err := e.Exec(sql)
		if err != nil {
			f.Fatal(err)
		}
		body, err := encodeResult(rs)
		if err != nil {
			f.Fatal(err)
		}
		var frame bytes.Buffer
		if err := writeFrame(&frame, frameResult, body); err != nil {
			f.Fatal(err)
		}
		f.Add(frame.Bytes())
		f.Add(frame.Bytes()[:frame.Len()-1])
	}
	f.Add([]byte{0, 0, 0, 0, byte(frameResult)})
	// 0x30000000 rows of no columns in a ten-byte body.
	f.Add([]byte{0, 0, 0, 11, byte(frameResult), 0, 0, 0, 0, 0, 0, 0x30, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, body, err := readFrame(bytes.NewReader(data))
		if err != nil || ft != frameResult {
			return
		}
		rs, err := decodeResult(body)
		if err != nil {
			return
		}
		again, err := encodeResult(rs)
		if err != nil {
			t.Fatalf("accepted result does not re-encode: %v", err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("re-encoded result differs:\n got %x\nwant %x", again, body)
		}
	})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameQuery, []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	ft, body, err := readFrame(&buf)
	if err != nil || ft != frameQuery || string(body) != "SELECT 1" {
		t.Fatalf("frame = %d %q %v", ft, body, err)
	}
}

func TestReadFrameRejectsBadLength(t *testing.T) {
	// Length 0 is invalid.
	buf := bytes.NewBuffer([]byte{0, 0, 0, 0, byte(frameQuery)})
	if _, _, err := readFrame(buf); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
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

	rs, err := conn.Query("SELECT v FROM kv WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0] != "two" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	// Mutations over the wire.
	rs, err = conn.Query("INSERT INTO kv VALUES (3, 'three')")
	if err != nil || rs.Affected != 1 {
		t.Fatalf("insert = %+v, %v", rs, err)
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
	if _, err := conn.Query("SELECT k FROM kv"); err != nil {
		t.Fatalf("session dead after error: %v", err)
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
				rs, err := conn.Query("SELECT v FROM kv WHERE k = 1")
				if err != nil {
					t.Errorf("client %d query %d: %v", i, j, err)
					return
				}
				if len(rs.Rows) != 1 || rs.Rows[0][0] != "one" {
					t.Errorf("client %d query %d: rows %v", i, j, rs.Rows)
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
