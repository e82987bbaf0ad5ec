package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// newRangeDB builds a table with an indexed and an unindexed copy of the
// same column so tests can compare index-assisted results against scans.
func newRangeDB(t *testing.T, n int) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE r (id INT PRIMARY KEY, v INT, vcopy INT, s TEXT)")
	mustExec(t, e, "CREATE INDEX rv ON r (v)")
	rng := rand.New(rand.NewSource(5))
	ins := &Insert{Table: "r"}
	for i := 0; i < n; i++ {
		v := int64(rng.Intn(100))
		var vv Value = v
		if i%17 == 0 {
			vv = nil // sprinkle NULLs
		}
		ins.Rows = append(ins.Rows, []Value{int64(i), vv, vv, fmt.Sprintf("s%d", i)})
	}
	if _, err := e.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
	return e
}

// queriesEqual runs the same predicate against the indexed and unindexed
// column and compares row counts.
func queriesEqual(t *testing.T, e *Engine, predicate string) {
	t.Helper()
	idx := mustExec(t, e, "SELECT id FROM r WHERE "+fmt.Sprintf(predicate, "v"))
	scan := mustExec(t, e, "SELECT id FROM r WHERE "+fmt.Sprintf(predicate, "vcopy"))
	if len(idx.Rows) != len(scan.Rows) {
		t.Fatalf("predicate %q: indexed %d rows, scan %d rows",
			fmt.Sprintf(predicate, "v"), len(idx.Rows), len(scan.Rows))
	}
}

func TestRangeIndexMatchesScan(t *testing.T) {
	e := newRangeDB(t, 500)
	for _, pred := range []string{
		"%s BETWEEN 20 AND 40",
		"%s BETWEEN 40 AND 20", // empty range
		"%s < 10",
		"%s <= 10",
		"%s > 90",
		"%s >= 90",
		"%s < 0",
		"%s > 99",
		"10 < %s",  // reversed: v > 10
		"10 >= %s", // reversed: v <= 10
		"%s BETWEEN 0 AND 99",
	} {
		queriesEqual(t, e, pred)
	}
}

func TestRangeIndexWithConjunction(t *testing.T) {
	e := newRangeDB(t, 500)
	// No conjunct is an equality, so both statements scan; an index on v
	// must not change the answer.
	idx := mustExec(t, e, "SELECT id FROM r WHERE v BETWEEN 20 AND 40 AND id < 100")
	scan := mustExec(t, e, "SELECT id FROM r WHERE vcopy BETWEEN 20 AND 40 AND id < 100")
	if len(idx.Rows) != len(scan.Rows) {
		t.Fatalf("indexed %d, scan %d", len(idx.Rows), len(scan.Rows))
	}
	// Equality conjunct wins over range: id = 7 uses the pk hash.
	one := mustExec(t, e, "SELECT id FROM r WHERE id = 7 AND v >= 0")
	if len(one.Rows) > 1 {
		t.Fatalf("rows = %d", len(one.Rows))
	}
}

func TestRangeIndexExcludesNulls(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (v INT)")
	mustExec(t, e, "CREATE INDEX tv ON t (v)")
	mustExec(t, e, "INSERT INTO t VALUES (NULL), (1), (NULL), (5), (9)")
	for _, tc := range []struct {
		pred string
		want int
	}{
		{"v >= 0", 3},
		{"v < 100", 3},
		{"v BETWEEN 1 AND 5", 2},
	} {
		rs := mustExec(t, e, "SELECT v FROM t WHERE "+tc.pred)
		if len(rs.Rows) != tc.want {
			t.Errorf("%s: %d rows, want %d", tc.pred, len(rs.Rows), tc.want)
		}
		for _, row := range rs.Rows {
			if row[0] == nil {
				t.Errorf("%s returned a NULL row", tc.pred)
			}
		}
	}
}

func TestRangeIndexStaysFreshAcrossMutations(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (v INT)")
	mustExec(t, e, "CREATE INDEX tv ON t (v)")
	mustExec(t, e, "INSERT INTO t VALUES (1), (5), (9)")
	if rs := mustExec(t, e, "SELECT v FROM t WHERE v BETWEEN 0 AND 6"); len(rs.Rows) != 2 {
		t.Fatalf("initial rows = %d", len(rs.Rows))
	}
	mustExec(t, e, "INSERT INTO t VALUES (3)")
	if rs := mustExec(t, e, "SELECT v FROM t WHERE v BETWEEN 0 AND 6"); len(rs.Rows) != 3 {
		t.Fatalf("post-insert rows = %d", len(rs.Rows))
	}
	mustExec(t, e, "UPDATE t SET v = 100 WHERE v = 1")
	if rs := mustExec(t, e, "SELECT v FROM t WHERE v BETWEEN 0 AND 6"); len(rs.Rows) != 2 {
		t.Fatalf("post-update rows = %d", len(rs.Rows))
	}
	mustExec(t, e, "DELETE FROM t WHERE v = 3")
	if rs := mustExec(t, e, "SELECT v FROM t WHERE v BETWEEN 0 AND 6"); len(rs.Rows) != 1 {
		t.Fatalf("post-delete rows = %d", len(rs.Rows))
	}
}

func TestRangeIndexOnTextColumn(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (name TEXT)")
	mustExec(t, e, "CREATE INDEX tn ON t (name)")
	mustExec(t, e, "INSERT INTO t VALUES ('alice'), ('bob'), ('carol'), ('dave')")
	rs := mustExec(t, e, "SELECT name FROM t WHERE name BETWEEN 'b' AND 'd'")
	if len(rs.Rows) != 2 || rs.Rows[0][0] != "bob" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

// Property: for random data and random bounds, the indexed range query
// returns exactly the rows a full scan returns.
func TestRangeIndexEquivalenceProperty(t *testing.T) {
	f := func(vals []int16, loRaw, hiRaw int16) bool {
		if len(vals) == 0 || len(vals) > 200 {
			return true
		}
		e := NewEngine()
		if _, err := e.Exec("CREATE TABLE t (v INT, w INT)"); err != nil {
			return false
		}
		if _, err := e.Exec("CREATE INDEX tv ON t (v)"); err != nil {
			return false
		}
		ins := &Insert{Table: "t"}
		for _, v := range vals {
			ins.Rows = append(ins.Rows, []Value{int64(v), int64(v)})
		}
		if _, err := e.ExecStmt(ins); err != nil {
			return false
		}
		lo, hi := int64(loRaw), int64(hiRaw)
		idx, err1 := e.Exec(fmt.Sprintf("SELECT v FROM t WHERE v BETWEEN %d AND %d", lo, hi))
		scan, err2 := e.Exec(fmt.Sprintf("SELECT w FROM t WHERE w BETWEEN %d AND %d", lo, hi))
		if err1 != nil || err2 != nil {
			return false
		}
		if len(idx.Rows) != len(scan.Rows) {
			return false
		}
		// Compare multisets via sorted rendering.
		count := map[string]int{}
		for _, r := range idx.Rows {
			count[formatValue(r[0])]++
		}
		for _, r := range scan.Rows {
			count[formatValue(r[0])]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
