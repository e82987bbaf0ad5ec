package sqldb

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"servicebroker/internal/metrics"
)

// replyStatement draws one statement over t(id INT PRIMARY KEY, k INT,
// s TEXT, f FLOAT), whose cells are often NULL, and the one-row table w,
// wider than the engine's stack buffers: SELECTs with *, aliases, ORDER BY
// (DESC), LIMIT (0), aggregates and WHEREs that match nothing; INSERT,
// UPDATE and DELETE; and statements that fail on an unknown table or column,
// a mixed aggregate or a duplicate key.
func replyStatement(rng *rand.Rand) string {
	pick := func(options ...string) string { return options[rng.Intn(len(options))] }
	id := func() string { return fmt.Sprint(rng.Intn(10)) }
	k := func() string { return pick("0", "1", "2", "NULL") }
	str := func() string { return pick("'a'", "'b c'", "''", "NULL") }
	f := func() string { return pick("0.5", "1", "-2.25", "NULL") }
	where := func() string {
		return pick("", " WHERE id = "+id(), " WHERE k = "+k(), " WHERE s = "+str(), " WHERE id > "+id(),
			" WHERE f BETWEEN 0 AND 2", " WHERE id = 99", " WHERE k IN (1, 2) OR s = 'a'")
	}
	tail := func() string {
		return where() + pick("", " ORDER BY k", " ORDER BY s DESC", " ORDER BY f DESC", " ORDER BY id DESC") +
			pick("", "", " LIMIT 0", " LIMIT 2")
	}
	switch rng.Intn(16) {
	case 0, 1:
		return "INSERT INTO t VALUES (" + id() + ", " + k() + ", " + str() + ", " + f() + ")"
	case 2:
		return "INSERT INTO t (id, s) VALUES (" + id() + ", " + str() + "), (" + id() + ", " + str() + ")"
	case 3:
		return "UPDATE t SET k = " + k() + ", f = " + f() + where()
	case 4:
		return "DELETE FROM t" + where()
	case 5, 6:
		return "SELECT * FROM t" + tail()
	case 7, 8:
		return "SELECT " + pick("id AS key, s, f", "s, k AS kk", "f") + " FROM t" + tail()
	case 9:
		return "SELECT COUNT(*), COUNT(k), SUM(f), AVG(f) AS mean, MIN(s), MAX(k) AS top FROM t" + where()
	case 10:
		return "SELECT AVG(f), SUM(k), MIN(f), COUNT(*) FROM t WHERE id = 99" // over no rows
	case 11:
		return "SELECT *" + pick("", ", c16 AS last") + " FROM w" + pick("", " WHERE c0 = 1", " WHERE c0 = 2")
	default:
		return pick(
			"SELECT * FROM nosuch",
			"SELECT id, nosuch FROM t",
			"SELECT id FROM t ORDER BY nosuch",
			"SELECT id FROM t WHERE nosuch = 1 OR id >= 0",
			"SELECT COUNT(*), id FROM t",
			"SELECT COUNT(*), SUM(nosuch) FROM t",
			"SELECT SUM(s) FROM t WHERE s = 'a'",
			"UPDATE t SET nosuch = 1",
			"UPDATE nosuch SET k = 1",
			"DELETE FROM nosuch",
			"INSERT INTO nosuch VALUES (1)",
			"INSERT INTO t (id, nosuch) VALUES (1, 2)",
		)
	}
}

// TestReplyFrameMatchesExec runs seeded schedules through Server.respond on
// one engine and through Exec on another, fed the same statements. After
// every step the server's reply must be byte for byte the frame of
// appendResult over Exec's ResultSet, or the same error frame: rendering
// straight from the rows, under the read lock, changes nothing a client sees,
// and a statement that fails sends its error and nothing of a result.
func TestReplyFrameMatchesExec(t *testing.T) {
	wide := make([]string, 17) // one more than maxStackWidth
	for i := range wide {
		wide[i] = fmt.Sprintf("c%d INT", i)
	}
	wide[0] += " PRIMARY KEY"
	setup := []string{
		"CREATE TABLE t (id INT PRIMARY KEY, k INT, s TEXT, f FLOAT)",
		"CREATE TABLE w (" + strings.Join(wide, ", ") + ")",
		"INSERT INTO w VALUES (1" + strings.Repeat(", 7", 15) + ", NULL)",
		"CREATE INDEX tk ON t (k)",
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := metrics.NewRegistry()
		srv := &Server{engine: NewEngine(), queries: reg.Counter("queries"),
			queryErrors: reg.Counter("query_errors"), queryTime: reg.Histogram("query_time")}
		ref := NewEngine()
		failed := int64(0)
		steps := len(setup) + 40
		for step := 0; step < steps; step++ {
			sql := replyStatement(rng)
			if step < len(setup) {
				sql = setup[step]
			}
			var got, want bytes.Buffer
			if !srv.respond(newBufferedConn(&got), []byte(sql)) {
				t.Fatalf("seed %d step %d: %s: respond ended the session", seed, step, sql)
			}
			bc := newBufferedConn(&want)
			var frame []byte
			if rs, err := ref.Exec(sql); err != nil {
				failed++
				frame = appendString(bc.start(frameError), err.Error())
			} else if frame, err = appendResult(bc.start(frameResult), rs); err != nil {
				t.Fatalf("seed %d step %d: %s: appendResult: %v", seed, step, sql, err)
			}
			if err := bc.send(frame); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("seed %d step %d: %s:\nreply %q\nwant  %q", seed, step, sql, got.Bytes(), want.Bytes())
			}
		}
		if n := srv.queryErrors.Value(); n != failed {
			t.Fatalf("seed %d: query_errors = %d, want %d", seed, n, failed)
		}
	}
}
