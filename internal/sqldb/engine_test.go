package sqldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// newMoviesDB builds a small fixture database for engine tests.
func newMoviesDB(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, rating FLOAT, year INT)")
	mustExec(t, e, `INSERT INTO movies VALUES
		(1, 'Alien', 8.5, 1979),
		(2, 'Blade Runner', 8.1, 1982),
		(3, 'Brazil', 7.9, 1985),
		(4, 'Contact', 7.5, 1997),
		(5, 'Dune', 6.5, 1984)`)
	return e
}

func mustExec(t *testing.T, e *Engine, sql string) *ResultSet {
	t.Helper()
	rs, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return rs
}

func TestCreateInsertSelect(t *testing.T) {
	e := newMoviesDB(t)
	rs := mustExec(t, e, "SELECT title FROM movies WHERE year < 1985 ORDER BY title")
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rs.Rows))
	}
	if rs.Rows[0][0] != "Alien" || rs.Rows[2][0] != "Dune" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	e := newMoviesDB(t)
	rs := mustExec(t, e, "SELECT * FROM movies WHERE id = 3")
	if len(rs.Columns) != 4 || len(rs.Rows) != 1 {
		t.Fatalf("result %+v", rs)
	}
	if rs.Rows[0][1] != "Brazil" {
		t.Fatalf("row = %v", rs.Rows[0])
	}
}

func TestSelectLimitAndOrder(t *testing.T) {
	e := newMoviesDB(t)
	rs := mustExec(t, e, "SELECT title FROM movies ORDER BY rating DESC LIMIT 2")
	if len(rs.Rows) != 2 || rs.Rows[0][0] != "Alien" || rs.Rows[1][0] != "Blade Runner" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	rs = mustExec(t, e, "SELECT title FROM movies LIMIT 0")
	if len(rs.Rows) != 0 {
		t.Fatalf("LIMIT 0 rows = %v", rs.Rows)
	}
}

func TestWherePredicates(t *testing.T) {
	e := newMoviesDB(t)
	tests := []struct {
		where string
		want  int
	}{
		{"rating >= 8", 2},
		{"rating > 8.1", 1},
		{"year BETWEEN 1982 AND 1985", 3},
		{"year NOT BETWEEN 1982 AND 1985", 2},
		{"id IN (1, 3, 5)", 3},
		{"id NOT IN (1, 3, 5)", 2},
		{"title LIKE 'B%'", 2},
		{"title NOT LIKE 'B%'", 3},
		{"title LIKE '%n%'", 4},
		{"rating < 7 OR rating > 8.4", 2},
		{"year > 1980 AND year < 1990 AND rating > 7", 2},
		{"NOT (year > 1980)", 1},
		{"id != 1", 4},
		{"id <> 1", 4},
		{"id <= 2", 2},
	}
	for _, tt := range tests {
		rs := mustExec(t, e, "SELECT id FROM movies WHERE "+tt.where)
		if len(rs.Rows) != tt.want {
			t.Errorf("WHERE %s: %d rows, want %d", tt.where, len(rs.Rows), tt.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	e := newMoviesDB(t)
	rs := mustExec(t, e, "SELECT COUNT(*), MIN(rating), MAX(rating), AVG(year) FROM movies")
	row := rs.Rows[0]
	if row[0] != int64(5) {
		t.Fatalf("count = %v", row[0])
	}
	if row[1] != 6.5 || row[2] != 8.5 {
		t.Fatalf("min/max = %v/%v", row[1], row[2])
	}
	avg := row[3].(float64)
	if avg < 1985 || avg > 1986 {
		t.Fatalf("avg year = %v", avg)
	}
	rs = mustExec(t, e, "SELECT SUM(rating) AS total FROM movies WHERE year > 1990")
	if rs.Columns[0] != "total" || rs.Rows[0][0] != 7.5 {
		t.Fatalf("sum = %+v", rs)
	}
}

func TestAggregateOverEmptySet(t *testing.T) {
	e := newMoviesDB(t)
	rs := mustExec(t, e, "SELECT COUNT(*), AVG(rating), MIN(rating) FROM movies WHERE id > 100")
	row := rs.Rows[0]
	if row[0] != int64(0) || row[1] != nil || row[2] != nil {
		t.Fatalf("empty aggregates = %v", row)
	}
}

func TestUpdate(t *testing.T) {
	e := newMoviesDB(t)
	rs := mustExec(t, e, "UPDATE movies SET rating = 9.0 WHERE title = 'Dune'")
	if rs.Affected != 1 {
		t.Fatalf("affected = %d", rs.Affected)
	}
	rs = mustExec(t, e, "SELECT rating FROM movies WHERE title = 'Dune'")
	if rs.Rows[0][0] != 9.0 {
		t.Fatalf("rating = %v", rs.Rows[0][0])
	}
	// Update with no WHERE touches everything.
	rs = mustExec(t, e, "UPDATE movies SET year = 2000")
	if rs.Affected != 5 {
		t.Fatalf("affected = %d, want 5", rs.Affected)
	}
}

// An UPDATE resolves its SET columns in name order: the same statement
// reports the same error on every run.
func TestUpdateErrorIsDeterministic(t *testing.T) {
	e := newMoviesDB(t)
	for i := 0; i < 20; i++ {
		_, err := e.Exec("UPDATE movies SET zzz = 1, nosuch = 2, year = 'x'")
		if want := "sqldb: no such column: movies.nosuch"; err == nil || err.Error() != want {
			t.Fatalf("run %d: err = %v, want %s", i, err, want)
		}
	}
}

func TestDelete(t *testing.T) {
	e := newMoviesDB(t)
	rs := mustExec(t, e, "DELETE FROM movies WHERE year < 1985")
	if rs.Affected != 3 {
		t.Fatalf("affected = %d, want 3", rs.Affected)
	}
	if tb, _ := e.table("movies"); tb.nrows() != 2 {
		t.Fatalf("rows = %d, want 2", tb.nrows())
	}
}

func TestPrimaryKeyDuplicate(t *testing.T) {
	e := newMoviesDB(t)
	_, err := e.Exec("INSERT INTO movies VALUES (1, 'Duplicate', 1.0, 2000)")
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
	// UPDATE may not create one either: neither by moving a row onto a key
	// another row holds, nor by giving two matched rows the same key.
	before := mustExec(t, e, "SELECT * FROM movies")
	for _, sql := range []string{
		"UPDATE movies SET id = 1 WHERE id = 2",
		"UPDATE movies SET id = 9 WHERE year < 1985",
	} {
		if _, err := e.Exec(sql); !errors.Is(err, ErrDuplicateKey) {
			t.Errorf("Exec(%s) err = %v, want ErrDuplicateKey", sql, err)
		}
	}
	if after := mustExec(t, e, "SELECT * FROM movies"); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected updates changed the table:\n%v\nwas\n%v", after, before)
	}
	if rs := mustExec(t, e, "SELECT title FROM movies WHERE id = 1"); len(rs.Rows) != 1 || rs.Rows[0][0] != "Alien" {
		t.Fatalf("id = 1 rows = %v", rs.Rows)
	}
	// A row may keep its own key, or move to a free one.
	mustExec(t, e, "UPDATE movies SET id = 2 WHERE id = 2")
	mustExec(t, e, "UPDATE movies SET id = 7 WHERE id = 2")
	if rs := mustExec(t, e, "SELECT title FROM movies WHERE id = 7"); len(rs.Rows) != 1 || rs.Rows[0][0] != "Blade Runner" {
		t.Fatalf("id = 7 rows = %v", rs.Rows)
	}
	if rs := mustExec(t, e, "SELECT title FROM movies WHERE id = 2"); len(rs.Rows) != 0 {
		t.Fatalf("id = 2 rows = %v after the key moved", rs.Rows)
	}
}

// A statement that returns an error has changed nothing: the table and every
// indexed lookup read the same before and after.
func TestFailedStatementChangesNothing(t *testing.T) {
	const failsMidScan = "(v = 1 AND nosuch = 2) OR v = 3" // matches row 1, errors on row 3
	for _, sql := range []string{
		"DELETE FROM t WHERE " + failsMidScan,
		"UPDATE t SET v = 9 WHERE " + failsMidScan,
		"INSERT INTO t VALUES (4, 4), (5, 5), (1, 6)",
	} {
		e := NewEngine()
		mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
		mustExec(t, e, "CREATE INDEX tv ON t (v)")
		mustExec(t, e, "INSERT INTO t VALUES (1, 3), (2, 0), (3, 1)")
		snapshot := func() string {
			var b strings.Builder
			b.WriteString(mustExec(t, e, "SELECT * FROM t").String())
			for k := 0; k < 10; k++ {
				fmt.Fprintf(&b, "id=%d %v\n", k, mustExec(t, e, fmt.Sprintf("SELECT * FROM t WHERE id = %d", k)).Rows)
				fmt.Fprintf(&b, "v=%d %v\n", k, mustExec(t, e, fmt.Sprintf("SELECT * FROM t WHERE v = %d", k)).Rows)
			}
			return b.String()
		}
		before := snapshot()
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("Exec(%s) succeeded", sql)
		}
		if after := snapshot(); after != before {
			t.Errorf("Exec(%s) failed but left\n%s\nwhere there was\n%s", sql, after, before)
		}
	}
}

func TestInsertColumnSubset(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (a INT, b TEXT, c FLOAT)")
	mustExec(t, e, "INSERT INTO t (b, a) VALUES ('hi', 1)")
	rs := mustExec(t, e, "SELECT a, b, c FROM t")
	row := rs.Rows[0]
	if row[0] != int64(1) || row[1] != "hi" || row[2] != nil {
		t.Fatalf("row = %v", row)
	}
}

func TestInsertErrors(t *testing.T) {
	e := newMoviesDB(t)
	cases := map[string]error{
		"INSERT INTO nope VALUES (1)":                       ErrNoSuchTable,
		"INSERT INTO movies (nope) VALUES (1)":              ErrNoSuchColumn,
		"INSERT INTO movies VALUES (9, 'x', 1.0)":           ErrColumnCount,
		"INSERT INTO movies VALUES ('NaN', 'x', 1.0, 2000)": nil, // coercion error
	}
	for sql, want := range cases {
		_, err := e.Exec(sql)
		if err == nil {
			t.Errorf("Exec(%s) succeeded", sql)
			continue
		}
		if want != nil && !errors.Is(err, want) {
			t.Errorf("Exec(%s) err = %v, want %v", sql, err, want)
		}
	}
}

func TestSelectErrors(t *testing.T) {
	e := newMoviesDB(t)
	for _, sql := range []string{
		"SELECT * FROM nope",
		"SELECT nope FROM movies",
		"SELECT id FROM movies WHERE nope = 1",
		"SELECT id FROM movies ORDER BY nope",
		"SELECT SUM(title) FROM movies",
		"SELECT id, COUNT(*) FROM movies",
	} {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("Exec(%s) succeeded", sql)
		}
	}
}

func TestDDLErrors(t *testing.T) {
	e := newMoviesDB(t)
	if _, err := e.Exec("CREATE TABLE movies (id INT)"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	if _, err := e.Exec("CREATE TABLE bad (a INT, a TEXT)"); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := e.Exec("CREATE TABLE bad2 (a INT PRIMARY KEY, b INT PRIMARY KEY)"); err == nil {
		t.Fatal("two primary keys accepted")
	}
	if _, err := e.Exec("DROP TABLE nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("drop missing err = %v", err)
	}
	if _, err := e.Exec("CREATE INDEX i ON nope (x)"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("index missing table err = %v", err)
	}
	if _, err := e.Exec("CREATE INDEX i ON movies (nope)"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("index missing column err = %v", err)
	}
}

func TestDropTable(t *testing.T) {
	e := newMoviesDB(t)
	mustExec(t, e, "DROP TABLE movies")
	if _, err := e.Exec("SELECT * FROM movies"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("select after drop err = %v", err)
	}
	if len(e.tables) != 0 {
		t.Fatalf("tables = %v", e.tables)
	}
}

func TestIndexedLookupMatchesScan(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (k INT, v TEXT)")
	mustExec(t, e, "CREATE INDEX tk ON t (k)")
	for i := 0; i < 200; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, 'v%d')", i%20, i))
	}
	// Indexed path.
	indexed := mustExec(t, e, "SELECT v FROM t WHERE k = 7")
	// Force scan path by using a predicate shape the index matcher skips.
	scanned := mustExec(t, e, "SELECT v FROM t WHERE k BETWEEN 7 AND 7")
	if len(indexed.Rows) != len(scanned.Rows) || len(indexed.Rows) != 10 {
		t.Fatalf("indexed %d rows, scanned %d rows, want 10", len(indexed.Rows), len(scanned.Rows))
	}
}

func TestIndexStaysFreshAcrossMutations(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (k INT, v TEXT)")
	mustExec(t, e, "CREATE INDEX tk ON t (k)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
	if rs := mustExec(t, e, "SELECT v FROM t WHERE k = 1"); len(rs.Rows) != 1 {
		t.Fatalf("pre-mutation rows = %d", len(rs.Rows))
	}
	mustExec(t, e, "UPDATE t SET k = 1 WHERE v = 'b'")
	if rs := mustExec(t, e, "SELECT v FROM t WHERE k = 1"); len(rs.Rows) != 2 {
		t.Fatalf("post-update rows = %d, want 2", len(rs.Rows))
	}
	mustExec(t, e, "DELETE FROM t WHERE v = 'a'")
	if rs := mustExec(t, e, "SELECT v FROM t WHERE k = 1"); len(rs.Rows) != 1 {
		t.Fatalf("post-delete rows = %d, want 1", len(rs.Rows))
	}
	mustExec(t, e, "INSERT INTO t VALUES (1, 'c')")
	if rs := mustExec(t, e, "SELECT v FROM t WHERE k = 1"); len(rs.Rows) != 2 {
		t.Fatalf("post-insert rows = %d, want 2", len(rs.Rows))
	}
}

func TestReversedIndexEquality(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (5, 'five')")
	rs := mustExec(t, e, "SELECT v FROM t WHERE 5 = k")
	if len(rs.Rows) != 1 || rs.Rows[0][0] != "five" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestNullSemantics(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 'x'), (NULL, 'y'), (3, NULL)")
	if rs := mustExec(t, e, "SELECT b FROM t WHERE a = NULL"); len(rs.Rows) != 1 || rs.Rows[0][0] != "y" {
		t.Fatalf("= NULL rows = %v", rs.Rows)
	}
	if rs := mustExec(t, e, "SELECT b FROM t WHERE a != NULL"); len(rs.Rows) != 2 {
		t.Fatalf("!= NULL rows = %v", rs.Rows)
	}
	// NULL never matches ordering comparisons.
	if rs := mustExec(t, e, "SELECT b FROM t WHERE a > 0"); len(rs.Rows) != 2 {
		t.Fatalf("> 0 rows = %v", rs.Rows)
	}
	// COUNT(col) skips NULLs; COUNT(*) does not.
	rs := mustExec(t, e, "SELECT COUNT(a), COUNT(*) FROM t")
	if rs.Rows[0][0] != int64(2) || rs.Rows[0][1] != int64(3) {
		t.Fatalf("counts = %v", rs.Rows[0])
	}
	// NULL sorts first.
	rs = mustExec(t, e, "SELECT b FROM t ORDER BY a")
	if rs.Rows[0][0] != "y" {
		t.Fatalf("order rows = %v", rs.Rows)
	}
}

// An index keys a value as itself, and two values of a column's type are
// one key when compare calls them equal, so an indexed lookup finds what a
// scan finds: -0 and 0 are one FLOAT key, and two INTs past 2^53, which one
// float64 would round together, are two.
func TestIndexKeysAgreeWithScan(t *testing.T) {
	for _, tc := range []struct {
		typ, rows string
		wheres    []string
		want      int
	}{
		{"FLOAT", "(1, 0.0), (2, '-0'), (3, 1.5)", []string{"x = 0", "x = 0.0", "x = -0.0", "0 = x"}, 2},
		{"INT", "(1, 9007199254740992), (2, 9007199254740993), (3, 1)", []string{"x = 9007199254740993", "x = '9007199254740993'"}, 1},
	} {
		for _, indexed := range []bool{false, true} {
			e := NewEngine()
			mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, x "+tc.typ+")")
			if indexed {
				mustExec(t, e, "CREATE INDEX tx ON t (x)")
			}
			mustExec(t, e, "INSERT INTO t VALUES "+tc.rows)
			for _, where := range tc.wheres {
				if rs := mustExec(t, e, "SELECT id FROM t WHERE "+where); len(rs.Rows) != tc.want {
					t.Errorf("%s, indexed %v: %s rows = %v, want %d", tc.typ, indexed, where, rs.Rows, tc.want)
				}
			}
		}
	}
}

// NULL is its own key, not the text 'NULL': a TEXT primary key holds both.
func TestNullKeyIsNotTheTextNull(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (name TEXT PRIMARY KEY, v INT)")
	mustExec(t, e, "INSERT INTO t VALUES ('NULL', 1)")
	mustExec(t, e, "INSERT INTO t VALUES (NULL, 2)")
	if rs := mustExec(t, e, "SELECT v FROM t WHERE name = 'NULL'"); len(rs.Rows) != 1 || rs.Rows[0][0] != int64(1) {
		t.Fatalf("name = 'NULL' rows = %v, want [[1]]", rs.Rows)
	}
	if rs := mustExec(t, e, "SELECT v FROM t WHERE name = NULL"); len(rs.Rows) != 1 || rs.Rows[0][0] != int64(2) {
		t.Fatalf("name = NULL rows = %v, want [[2]]", rs.Rows)
	}
	if _, err := e.Exec("INSERT INTO t VALUES (NULL, 3)"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("a second NULL key: err = %v, want ErrDuplicateKey", err)
	}
}

// An INT or FLOAT column refuses NaN, as text or as a float64 through
// ExecStmt; the statement changes nothing. A NaN literal equals no row.
func TestNaNRefused(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT, x FLOAT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 1, 5), (2, 2, 7)")
	before := mustExec(t, e, "SELECT * FROM t")
	nan := math.NaN()
	for _, stmt := range []Statement{
		MustParse("INSERT INTO t VALUES (3, 3, 'NaN')"),
		MustParse("INSERT INTO t VALUES (3, 3, 'nan')"),
		MustParse("UPDATE t SET x = 'NaN' WHERE id = 1"),
		&Insert{Table: "t", Rows: [][]Value{{int64(3), int64(3), nan}}},
		&Insert{Table: "t", Rows: [][]Value{{int64(3), nan, 1.0}}},
		&Update{Table: "t", Set: map[string]Value{"n": nan}},
	} {
		if _, err := e.ExecStmt(stmt); err == nil {
			t.Errorf("%+v succeeded", stmt)
		}
	}
	if after := mustExec(t, e, "SELECT * FROM t"); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused statements changed the table:\n%v\nwas\n%v", after, before)
	}
	for _, col := range []string{"x", "n"} {
		sel := &Select{Items: []SelectItem{{Star: true}}, Table: "t", Limit: -1,
			Where: &Cmp{Op: OpEq, L: &ColRef{Name: col}, R: &Literal{Val: nan}}}
		if rs, err := e.ExecStmt(sel); err != nil || len(rs.Rows) != 0 {
			t.Errorf("%s = NaN: rows %v, err %v; want none", col, rs, err)
		}
	}
	if rs := mustExec(t, e, "SELECT id FROM t WHERE x = 5"); len(rs.Rows) != 1 {
		t.Fatalf("x = 5 rows = %v", rs.Rows)
	}
}

func TestResultSetString(t *testing.T) {
	e := newMoviesDB(t)
	rs := mustExec(t, e, "SELECT id, title FROM movies WHERE id = 1")
	s := rs.String()
	if s == "" || s[:2] != "id" {
		t.Fatalf("String() = %q", s)
	}
	rs = mustExec(t, e, "DELETE FROM movies WHERE id = 1")
	if rs.String() != "OK, 1 row(s) affected" {
		t.Fatalf("String() = %q", rs.String())
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (k INT, v TEXT)")
	mustExec(t, e, "CREATE INDEX tk ON t (k)")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := e.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'w%d-%d')", i%10, w, i)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := e.Exec(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE k = %d", i%10)); err != nil {
					t.Errorf("select: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rs := mustExec(t, e, "SELECT COUNT(*) FROM t")
	if rs.Rows[0][0] != int64(400) {
		t.Fatalf("count = %v, want 400", rs.Rows[0][0])
	}
}

// TestExecAllocs is the alloc-regression gate for the statements the
// benchmark issues against the 42,000-row fixture (matched by CI's -run
// 'Alloc' step); each budget is at most the measured count + 2. Once a
// statement's shape is cached, what is left is boxing its literals (an int64
// under 256 is free), the result — ResultSet, column names, rows and one
// backing array for their cells — and an UPDATE's SET list; the probe is
// the coerced literal itself and the matched positions live on the stack.
// An UPDATE of the unindexed score must stay a small constant: it rebuilds
// no index. A DELETE rebuilds the fixture's two, a walk of every row; keyed
// by value, an index allocates only its map and chain array (measured 142,
// where a text key per row cost 42,034).
// Nothing in the benchmark, the experiments or the examples deletes, so the
// walk is pinned, not fixed.
func TestExecAllocs(t *testing.T) {
	e := NewEngine()
	if err := LoadRecords(e, PaperRecordCount); err != nil {
		t.Fatal(err)
	}
	const rangeRead = "SELECT id, name, score FROM records WHERE category = 62 AND score BETWEEN 389 AND 427"
	if rs := mustExec(t, e, rangeRead); len(rs.Rows) != 15 {
		t.Fatalf("the range read matches %d rows, want 15", len(rs.Rows))
	}
	const runs = 10
	var deletes []string // a different row every run, AllocsPerRun's warm-up included
	for id := 100; id <= 100+runs; id++ {
		deletes = append(deletes, fmt.Sprintf("DELETE FROM records WHERE id = %d", id))
	}
	for _, tc := range []struct {
		sqls   []string // run i executes sqls[i % len(sqls)]
		budget float64
	}{
		{[]string{"SELECT id, name FROM records WHERE id = 41999"}, 6},
		{[]string{rangeRead}, 8},
		{[]string{"UPDATE records SET score = 12.345 WHERE id = 41999"}, 6},
		{deletes, 144},
	} {
		i := 0
		n := testing.AllocsPerRun(runs, func() {
			sql := tc.sqls[i%len(tc.sqls)]
			i++
			if rs, err := e.Exec(sql); err != nil || (rs.Affected == 0 && len(rs.Columns) == 0) {
				t.Fatalf("%s: %v, %v", sql, rs, err)
			}
		})
		if n > tc.budget {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", tc.sqls[0], n, tc.budget)
		}
	}
}

func TestLoadRecordsFixture(t *testing.T) {
	e := NewEngine()
	if err := LoadRecords(e, 5000); err != nil {
		t.Fatal(err)
	}
	tb, err := e.table(RecordsTable)
	if err != nil || tb.nrows() != 5000 {
		t.Fatalf("table %s: %v", RecordsTable, err)
	}
	// Queries from the random generator must execute.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if _, err := e.Exec(RandomRangeQuery(rng)); err != nil {
			t.Fatalf("random query: %v", err)
		}
	}
	if err := LoadRecords(NewEngine(), 0); err == nil {
		t.Fatal("LoadRecords(0) succeeded")
	}
}

// TestFixtureHeap guards the table layout: the 42,000-row fixture retains at
// most 6.8 MB once loaded (8.0 when each row was a slice of its own and the
// indexes were keyed by text). It does not run in parallel, so the heap it
// reads holds no other test's work.
func TestFixtureHeap(t *testing.T) {
	const ceilingMB = 6.8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine()
	if err := LoadRecords(e, PaperRecordCount); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	retained := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("fixture retains %.2f MB", retained)
	if retained > ceilingMB {
		t.Fatalf("the %d-row fixture retains %.2f MB, ceiling %.1f", PaperRecordCount, retained, ceilingMB)
	}
}

// A directive is decimal digits, 1 to MaxRepeat; anything else leaves the
// query whole, with count 1, for the engine to reject.
func TestRepeatQueryDirective(t *testing.T) {
	const sql = "SELECT id FROM records WHERE category = 3"
	if got := RepeatQuery(sql, 1); got != sql {
		t.Fatalf("RepeatQuery(1) = %q", got)
	}
	for _, tc := range []struct {
		in    string
		times int // 1: not a directive, the query comes back as it went in
	}{
		{RepeatQuery(sql, 5), 5},
		{RepeatQuery(sql, 40), 40},
		{RepeatQuery(sql, MaxRepeat), MaxRepeat},
		{"/*repeat=007*/ " + sql, 7},
		{sql, 1},
		{RepeatQuery(sql, MaxRepeat+1), 1},
		{"/*repeat=2000000000*/ " + sql, 1},
		{"/*repeat=99999999999999999999*/ " + sql, 1},
		{"/*repeat=0*/ " + sql, 1},
		{"/*repeat=3abc*/ " + sql, 1},
		{"/*repeat=+4*/ " + sql, 1},
		{"/*repeat=-4*/ " + sql, 1},
		{"/*repeat= 5*/ " + sql, 1},
		{"/*repeat=5 */ " + sql, 1},
		{"/*repeat=*/ " + sql, 1},
		{"/*repeat=oops*/ " + sql, 1},
		{"/*repeat=3 " + sql, 1},
	} {
		bare, times := ParseRepeat([]byte(tc.in))
		want := tc.in
		if tc.times > 1 {
			want = sql
		}
		if string(bare) != want || times != tc.times {
			t.Errorf("ParseRepeat(%q) = (%q, %d), want (%q, %d)", tc.in, bare, times, want, tc.times)
		}
	}
}

// Property: after inserting n distinct primary keys, COUNT(*) = n and every
// key is retrievable via the index path.
func TestInsertLookupProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		e := NewEngine()
		if _, err := e.Exec("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)"); err != nil {
			return false
		}
		seen := map[uint16]bool{}
		for _, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if _, err := e.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'v%d')", k, k)); err != nil {
				return false
			}
		}
		rs, err := e.Exec("SELECT COUNT(*) FROM t")
		if err != nil || rs.Rows[0][0] != int64(len(seen)) {
			return false
		}
		for k := range seen {
			rs, err := e.Exec(fmt.Sprintf("SELECT v FROM t WHERE k = %d", k))
			if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0] != fmt.Sprintf("v%d", k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ORDER BY produces a non-decreasing (or non-increasing) sequence.
func TestOrderByMonotoneProperty(t *testing.T) {
	f := func(vals []int16, desc bool) bool {
		e := NewEngine()
		if _, err := e.Exec("CREATE TABLE t (v INT)"); err != nil {
			return false
		}
		for _, v := range vals {
			if _, err := e.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", v)); err != nil {
				return false
			}
		}
		dir := "ASC"
		if desc {
			dir = "DESC"
		}
		rs, err := e.Exec("SELECT v FROM t ORDER BY v " + dir)
		if err != nil {
			return false
		}
		for i := 1; i < len(rs.Rows); i++ {
			c := compare(rs.Rows[i-1][0], rs.Rows[i][0])
			if desc && c < 0 {
				return false
			}
			if !desc && c > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
