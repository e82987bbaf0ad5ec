package sqldb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// Each group is the statements of one shape, executed in order through Exec
// on one engine and through fresh parses on a twin: the parse Exec keeps must
// give every later statement of its shape the result, or the error text, of
// a fresh parse, and no two groups may share a shape.
func TestShapeCacheMatchesFreshParse(t *testing.T) {
	groups := [][]string{
		{"SELECT id FROM t ORDER BY id LIMIT 1", "SELECT id FROM t ORDER BY id LIMIT -1", "SELECT id FROM t ORDER BY id LIMIT 3"},
		{"SELECT id FROM t WHERE b LIKE 'a%'", "SELECT id FROM t WHERE b LIKE 'b%'"},
		{"SELECT b FROM t WHERE id = 5", "SELECT b FROM t WHERE id = 1"},
		{"SELECT b FROM t WHERE id = 'x'", "SELECT b FROM t WHERE id = '5'"},
		{"SELECT b FROM t WHERE id = NULL"},
		{"SELECT id FROM t WHERE f > 2", "SELECT id FROM t WHERE f > 5"},
		{"SELECT id FROM t WHERE f > 2.5", "SELECT id FROM t WHERE f > 1.0"},
		{"SELECT id FROM t WHERE b = 'it''s'", "SELECT id FROM t WHERE b = 'a''b'", "SELECT id FROM t WHERE b = ''''"},
		{"UPDATE t SET a = 7, b = 'seven' WHERE id = 1", "UPDATE t SET a = 8, b = 'eight' WHERE id = 2", "UPDATE t SET a = 9, b = 'nine' WHERE id = 9"},
		{"UPDATE t SET a = 'x', b = 'y' WHERE id = 3"},
		{"INSERT INTO t VALUES (6, 6, 'six', 6.5)", "INSERT INTO t VALUES (7, 7, 'seven', 7.5)", "INSERT INTO t VALUES (7, 0, 'dup', 0.5)"},
		{"SELECT * FROM t"},
	}
	cached, fresh := NewEngine(), NewEngine()
	for _, e := range []*Engine{cached, fresh} {
		for _, sql := range []string{
			"CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT, f FLOAT)",
			"INSERT INTO t VALUES (1, 1, 'apple', 1.5), (2, 2, 'banana', 2.5), (3, 3, 'it''s', 3.5), (5, 5, 'a''b', 5.0)",
		} {
			if _, err := execFresh(e, sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, group := range groups {
		for _, sql := range group {
			got, gotErr := cached.Exec(sql)
			want, wantErr := execFresh(fresh, sql)
			if diff := outcomeDiff(got, gotErr, want, wantErr); diff != "" {
				t.Errorf("%s: %s", sql, diff)
			}
		}
	}
	if len(cached.shapes) != len(groups) {
		t.Errorf("%d shapes cached, want %d", len(cached.shapes), len(groups))
	}
}

// Eight goroutines execute two shapes with literals of their own, each
// checking that it read its own rows (run with -race).
func TestShapeCacheConcurrent(t *testing.T) {
	e := NewEngine()
	if err := LoadRecords(e, 1000); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, n := g*100+i%100, 1+i%4
				rs, err := e.Exec(fmt.Sprintf("SELECT id, name FROM records WHERE id = %d", id))
				if err != nil || len(rs.Rows) != 1 || rs.Rows[0][1] != fmt.Sprintf("record-%06d", id) {
					t.Errorf("goroutine %d, id %d: %v, %v", g, id, rs, err)
					return
				}
				rs, err = e.Exec(fmt.Sprintf("SELECT id FROM records WHERE id >= %d ORDER BY id LIMIT %d", id, n))
				if err != nil || len(rs.Rows) != n || rs.Rows[0][0] != int64(id) || rs.Rows[n-1][0] != int64(id+n-1) {
					t.Errorf("goroutine %d, %d rows from %d: %v, %v", g, n, id, rs, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Statements executed from one byte buffer, overwritten in place by the next
// statement and scribbled over after each, as the server's receive buffer
// is: a new shape, the same shape with other literals, text literals written
// into the table, and then the first statements' text again. Every reply
// must be a fresh parse's on a twin engine, so neither a kept parse nor the
// table refers to the buffer.
func TestExecFromBytesKeepsNoBuffer(t *testing.T) {
	steps := []string{
		"CREATE TABLE t (id INT PRIMARY KEY, name TEXT, f FLOAT)",
		"INSERT INTO t VALUES (1, 'alpha', 1.5)",
		"INSERT INTO t VALUES (2, 'bravo', 2.5)",
		"SELECT id, name, f FROM t WHERE name = 'alpha' AND id >= 1",
		"SELECT id, name, f FROM t WHERE name = 'bravo' AND id >= 2",
		"UPDATE t SET name = 'delta' WHERE id = 1",
		"UPDATE t SET name = 'hotel' WHERE id = 2",
		"SELECT id, name, f FROM t WHERE name LIKE 'alp%'",
		"SELECT id, name, f FROM t WHERE name LIKE 'del%'",
		"INSERT INTO t VALUES (1, 'alpha', 1.5)",
		"SELECT id, name, f FROM t WHERE name = 'alpha' AND id >= 1",
		"SELECT * FROM t ORDER BY id",
	}
	e, fresh := NewEngine(), NewEngine()
	buf := make([]byte, 0, 64)
	for _, sql := range steps {
		buf = append(buf[:0], sql...)
		got, gotErr := execBody(e, buf)
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = '?'
		}
		rs, wantErr := execFresh(fresh, sql)
		var want []byte
		if wantErr == nil {
			want, wantErr = appendResult(nil, rs)
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, fresh parse %v", sql, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: reply %q, fresh parse %q", sql, got, want)
		}
	}
	if len(e.shapes) != 5 { // CREATE TABLE is not cached
		t.Errorf("%d shapes cached, want 5", len(e.shapes))
	}
}
