package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// model is the reference the engine is compared against: one slice of rows,
// always scanned, no index. A mutation is applied to a copy that replaces the
// rows only once the whole statement and a primary-key scan have succeeded.
// It shares the engine's evaluator, coercion and projection and none of its
// selection, mutation or index code.
type model struct{ t *table }

func (m *model) exec(stmt Statement) (*ResultSet, error) {
	t := m.t
	var where Expr
	_, deleting := stmt.(*Delete)
	switch s := stmt.(type) {
	case *CreateIndex:
		_, err := t.column(s.Column)
		return &ResultSet{}, err
	case *Select:
		where = s.Where
	case *Update:
		where = s.Where
	case *Delete:
		where = s.Where
	}
	var matched []int
	var next [][]Value
	for pos, row := range t.rows {
		ok, err := evalBool(where, t, row)
		if err != nil {
			return nil, err
		}
		if ok {
			matched = append(matched, pos)
		}
		if !(ok && deleting) {
			next = append(next, append([]Value(nil), row...))
		}
	}
	rs := &ResultSet{Affected: len(matched)}
	switch s := stmt.(type) {
	case *Select:
		return project(s, t, matched)
	case *Insert:
		rs.Affected = len(s.Rows)
		for _, tuple := range s.Rows {
			if len(tuple) != len(t.columns) {
				return nil, ErrColumnCount
			}
			next = append(next, append([]Value(nil), tuple...))
		}
	case *Update:
		for col, v := range s.Set {
			ci, err := t.column(col)
			if err != nil {
				return nil, err
			}
			if _, err := coerce(v, t.columns[ci].Type); err != nil {
				return nil, err
			}
			for _, pos := range matched {
				next[pos][ci] = v
			}
		}
	}
	seen := map[string]bool{}
	for _, row := range next {
		for ci, c := range t.columns {
			var err error
			if row[ci], err = coerce(row[ci], c.Type); err != nil {
				return nil, err
			}
		}
		pk := formatValue(row[t.pkCol])
		if seen[pk] {
			return nil, ErrDuplicateKey
		}
		seen[pk] = true
	}
	t.rows = next
	return rs, nil
}

// modelStatement draws one statement over t(id INT PRIMARY KEY, k INT,
// s TEXT, f FLOAT) from small value domains, so keys collide and predicates
// match often. k and s gain an index mid-sequence; f never has one. The
// unknown column sits only under an OR: there every row is evaluated with or
// without an index, so whether the statement fails cannot depend on the plan.
func modelStatement(rng *rand.Rand) string {
	pick := func(options ...string) string { return options[rng.Intn(len(options))] }
	id := func() string { return fmt.Sprint(rng.Intn(12)) }
	k := func() string { return pick("0", "1", "2", "3", "NULL") }
	str := func() string { return pick("'a'", "'b'", "'c'", "NULL") }
	f := func() string { return pick("0.5", "1", "2.5") }
	pred := func() string {
		switch rng.Intn(12) {
		case 0:
			return "id = " + id()
		case 1:
			return id() + " = id"
		case 2:
			return "k = " + k()
		case 3:
			return "s = " + str()
		case 4:
			return "id IN (" + id() + ", " + id() + ", " + id() + ")"
		case 5:
			return "k BETWEEN " + id() + " AND " + id()
		case 6:
			return "id < " + id()
		case 7:
			return "k = " + k() + " AND f > " + f()
		case 8:
			return "f <= " + f() + " AND s = " + str() + " AND id >= " + id()
		case 9:
			return "k = " + k() + " OR id = " + id()
		case 10:
			return "(k = " + k() + " AND nosuch = 2) OR f = " + f()
		default:
			return "NOT (s = " + str() + ")"
		}
	}
	tuple := func() string { return "(" + id() + ", " + k() + ", " + str() + ", " + f() + ")" }
	switch rng.Intn(16) {
	case 0, 1, 2:
		return "INSERT INTO t VALUES " + tuple()
	case 3:
		return "INSERT INTO t VALUES " + tuple() + ", " + tuple() + ", " + tuple()
	case 4:
		return "INSERT INTO t VALUES (" + id() + ", " + k() + ")"
	case 5:
		return "UPDATE t SET k = " + k() + " WHERE " + pred()
	case 6:
		return "UPDATE t SET f = " + f() + ", s = " + str() + " WHERE " + pred()
	case 7:
		return "UPDATE t SET id = " + id() + " WHERE " + pred()
	case 8:
		return "UPDATE t SET " + pick("nosuch = 1", "k = 'x'") + " WHERE " + pred()
	case 9, 10:
		return "DELETE FROM t WHERE " + pred()
	case 11:
		return "CREATE INDEX i ON t (" + pick("k", "s", "nosuch") + ")"
	case 12:
		return "SELECT COUNT(*), MIN(k), SUM(f) FROM t WHERE " + pred()
	case 13:
		return "SELECT id, s FROM t WHERE " + pred() + " ORDER BY " + pick("k", "s DESC", "f") + " LIMIT 3"
	default:
		return "SELECT * FROM t WHERE " + pred()
	}
}

// TestEngineMatchesModel runs seeded statement sequences through the engine
// and the model and compares, after every step, the statement's result,
// whether it failed, the whole table, and one equality lookup per column.
func TestEngineMatchesModel(t *testing.T) {
	const create = "CREATE TABLE t (id INT PRIMARY KEY, k INT, s TEXT, f FLOAT)"
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		mustExec(t, e, create)
		ref := NewEngine()
		mustExec(t, ref, create)
		m := &model{t: ref.tables["t"]}
		m.t.indexes = nil

		step, stmt, sql := 0, create, create
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s: checking %s: %s", seed, step, stmt, sql, fmt.Sprintf(format, args...))
		}
		both := func() (got, want *ResultSet) {
			t.Helper()
			defer func() {
				if r := recover(); r != nil {
					fail("panic: %v", r)
				}
			}()
			got, gotErr := e.Exec(sql)
			want, wantErr := m.exec(MustParse(sql))
			if (gotErr != nil) != (wantErr != nil) {
				fail("engine error %v, model error %v", gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				fail("engine returned\n%+v\nmodel\n%+v", got, want)
			}
			return got, want
		}
		for step = 1; step <= 60; step++ {
			stmt = modelStatement(rng)
			sql = stmt
			both()
			sql = "SELECT * FROM t"
			_, table := both()
			for ci, c := range m.t.columns {
				if len(table.Rows) > 0 {
					v := table.Rows[rng.Intn(len(table.Rows))][ci]
					sql = fmt.Sprintf("SELECT * FROM t WHERE %s = %s", c.Name, sqlLiteral(v))
					both()
				}
			}
		}
	}
}

func sqlLiteral(v Value) string {
	if s, ok := v.(string); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return formatValue(v)
}
