package sqldb

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// MustParse parses sql and panics on error.
func MustParse(sql string) Statement {
	s, err := Parse(sql)
	if err != nil {
		panic(fmt.Sprintf("MustParse(%s): %v", strings.TrimSpace(sql), err))
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT id, name FROM t WHERE score >= 3.5 AND name LIKE 'a%'")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokenKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.kind
	}
	if toks[0].val != "SELECT" || toks[0].kind != tokKeyword {
		t.Fatalf("first token = %+v", toks[0])
	}
	last := toks[len(toks)-1]
	if last.kind != tokEOF {
		t.Fatalf("last token = %+v, want EOF", last)
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := lex("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].lit.s != "it's" {
		t.Fatalf("string = %q, want it's", toks[0].lit.s)
	}
}

func TestLexUnterminatedString(t *testing.T) {
	if _, err := lex("SELECT 'oops"); err == nil {
		t.Fatal("unterminated string lexed")
	}
}

func TestLexNegativeNumbers(t *testing.T) {
	toks, err := lex("WHERE x = -5")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, tok := range toks {
		if tok.kind == tokNumber && tok.lit == (cell{kind: TypeInt, n: -5}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no -5 token in %+v", toks)
	}
}

func TestLexBadCharacter(t *testing.T) {
	if _, err := lex("SELECT @ FROM t"); err == nil {
		t.Fatal("lexed '@'")
	}
}

// Outside quotes the lexer reads ASCII only: a byte from 0x80 on is refused
// with its offset, so no UTF-8 character is split into a name byte and a
// space or letter. Inside quotes every byte is kept.
func TestLexRefusesNonASCIIOutsideQuotes(t *testing.T) {
	for _, tc := range []struct{ sql, err string }{
		{"CREATE TABLE t (\u0160a INT, b INT)", "sqldb: byte 0xc5 outside a quoted string at 16"},
		{"CREATE TABLE t (\u0160 INT)", "sqldb: byte 0xc5 outside a quoted string at 16"},
		{"SELECT a FROM t WHERE b\u0085= 2", "sqldb: byte 0xc2 outside a quoted string at 23"},
		{"SELECT a FROM t WHERE b =\u00a02", "sqldb: byte 0xc2 outside a quoted string at 25"},
		{"SELECT \xff FROM t", "sqldb: byte 0xff outside a quoted string at 7"},
	} {
		if _, err := Parse(tc.sql); err == nil || err.Error() != tc.err {
			t.Errorf("Parse(%q) err = %v, want %s", tc.sql, err, tc.err)
		}
	}
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, '\u0160a\u00a0\u0085')")
	if rs := mustExec(t, e, "SELECT a FROM t WHERE b = '\u0160a\u00a0\u0085'"); len(rs.Rows) != 1 {
		t.Fatalf("quoted UTF-8 read back %v, want one row", rs.Rows)
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse("CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, rating FLOAT)")
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := stmt.(*CreateTable)
	if !ok {
		t.Fatalf("stmt = %T", stmt)
	}
	if ct.Name != "movies" || len(ct.Columns) != 3 {
		t.Fatalf("parsed %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Type != TypeInt {
		t.Fatalf("pk column %+v", ct.Columns[0])
	}
	if ct.Columns[2].Type != TypeFloat {
		t.Fatalf("rating column %+v", ct.Columns[2])
	}
}

func TestParseCreateIndex(t *testing.T) {
	stmt := MustParse("CREATE INDEX idx ON movies (title)")
	ci := stmt.(*CreateIndex)
	if ci.Name != "idx" || ci.Table != "movies" || ci.Column != "title" {
		t.Fatalf("parsed %+v", ci)
	}
}

func TestParseInsert(t *testing.T) {
	stmt := MustParse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
	ins := stmt.(*Insert)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("parsed %+v", ins)
	}
	if ins.Rows[0][0] != int64(1) || ins.Rows[0][1] != "x" {
		t.Fatalf("row 0 = %+v", ins.Rows[0])
	}
	if ins.Rows[1][1] != nil {
		t.Fatalf("row 1 NULL = %+v", ins.Rows[1][1])
	}
}

func TestParseSelectFull(t *testing.T) {
	stmt := MustParse("SELECT id, name AS n FROM t WHERE (a = 1 OR b < 2) AND c BETWEEN 3 AND 4 ORDER BY id DESC LIMIT 10")
	sel := stmt.(*Select)
	if len(sel.Items) != 2 || sel.Items[1].Alias != "n" {
		t.Fatalf("items %+v", sel.Items)
	}
	if sel.OrderBy != "id" || !sel.Desc || sel.Limit != 10 {
		t.Fatalf("tail %+v", sel)
	}
	logical, ok := sel.Where.(*Logical)
	if !ok || logical.Op != OpAnd {
		t.Fatalf("where %T", sel.Where)
	}
}

func TestParseSelectStarAndAggregates(t *testing.T) {
	stmt := MustParse("SELECT * FROM t")
	if sel := stmt.(*Select); !sel.Items[0].Star {
		t.Fatal("star not parsed")
	}
	stmt = MustParse("SELECT COUNT(*), AVG(score) AS a FROM t")
	sel := stmt.(*Select)
	if sel.Items[0].Agg != AggCount || !sel.Items[0].Star {
		t.Fatalf("count item %+v", sel.Items[0])
	}
	if sel.Items[1].Agg != AggAvg || sel.Items[1].Alias != "a" {
		t.Fatalf("avg item %+v", sel.Items[1])
	}
}

func TestParseSelectInLikeNot(t *testing.T) {
	stmt := MustParse("SELECT id FROM t WHERE a IN (1, 2, 3) AND name NOT LIKE 'x%' AND NOT b = 5")
	sel := stmt.(*Select)
	if sel.Where == nil {
		t.Fatal("where missing")
	}
}

func TestParseUpdate(t *testing.T) {
	stmt := MustParse("UPDATE t SET a = 1, b = 'two' WHERE id = 3")
	upd := stmt.(*Update)
	if upd.Set["a"].val != (cell{kind: TypeInt, n: 1}) || upd.Set["b"].val != (cell{kind: TypeText, s: "two"}) {
		t.Fatalf("set %+v", upd.Set)
	}
	if upd.Where == nil {
		t.Fatal("where missing")
	}
}

func TestParseDelete(t *testing.T) {
	stmt := MustParse("DELETE FROM t WHERE id > 10")
	del := stmt.(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("parsed %+v", del)
	}
	stmt = MustParse("DELETE FROM t")
	if stmt.(*Delete).Where != nil {
		t.Fatal("where should be nil")
	}
}

func TestParseDropTable(t *testing.T) {
	stmt := MustParse("DROP TABLE t")
	if stmt.(*DropTable).Name != "t" {
		t.Fatal("bad drop")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROBNICATE t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a ==",
		"SELECT * FROM t LIMIT -1",
		"SELECT * FROM t LIMIT 1.5",
		"SELECT SUM(*) FROM t",
		"INSERT INTO t VALUES",
		"INSERT INTO t VALUES (1,)",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a BLOB)",
		"CREATE INDEX i ON t",
		"UPDATE t SET",
		"DELETE t",
		"SELECT * FROM t extra garbage",
		"SELECT * FROM t WHERE a LIKE 5",
		"SELECT * FROM t WHERE a NOT = 5",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded; want error", sql)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on garbage did not panic")
		}
	}()
	MustParse("NOT SQL AT ALL")
}

// Property: the parser never panics on arbitrary input.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(sql string) bool {
		_, _ = Parse(sql)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the parser never panics on keyword-dense inputs, which reach
// deeper grammar paths than fully random strings.
func TestParseKeywordSoupNeverPanicsProperty(t *testing.T) {
	words := []string{
		"SELECT", "FROM", "WHERE", "INSERT", "VALUES", "(", ")", ",", "*",
		"=", "<", ">", "AND", "OR", "NOT", "BETWEEN", "IN", "LIKE", "ORDER",
		"BY", "LIMIT", "t", "a", "1", "'s'", "NULL", "COUNT", "CREATE", "TABLE",
	}
	f := func(picks []uint8) bool {
		parts := make([]string, 0, len(picks))
		for _, p := range picks {
			parts = append(parts, words[int(p)%len(words)])
		}
		_, _ = Parse(strings.Join(parts, " "))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Integer literals are exact int64s: past 2^53 a float64 would lose them, and
// one past the int64 range is refused, not wrapped.
func TestIntegerLiteralsAreExact(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 9007199254740993)")
	if rs := mustExec(t, e, "SELECT v FROM t WHERE id = 1"); rs.Rows[0][0] != int64(9007199254740993) {
		t.Errorf("read back %v, want 9007199254740993", rs.Rows[0][0])
	}
	const huge = "INSERT INTO t VALUES (2, 99999999999999999999)"
	if _, err := e.Exec(huge); err == nil || err.Error() != "sqldb: integer out of range at 25" {
		t.Errorf("Exec(%s) err = %v, want integer out of range at 25", huge, err)
	}
	mustExec(t, e, "INSERT INTO t VALUES (9007199254740992, 0)")
	mustExec(t, e, "INSERT INTO t VALUES (9007199254740993, 0)")
	if rs := mustExec(t, e, "SELECT COUNT(*) FROM t WHERE id = 9007199254740993"); rs.Rows[0][0] != int64(1) {
		t.Errorf("rows with id 2^53+1: %v, want 1", rs.Rows[0][0])
	}
}

// parseInt agrees with strconv.ParseInt on a literal's text, at and past
// both ends of int64's range included.
func TestParseIntMatchesStrconv(t *testing.T) {
	for _, text := range []string{
		"0", "-0", "007", "42", "-42", "9007199254740993",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "18446744073709551615", "18446744073709551616",
		"99999999999999999999", "-99999999999999999999",
	} {
		n, ok := parseInt([]byte(text))
		want, err := strconv.ParseInt(text, 10, 64)
		if ok != (err == nil) || ok && n != want {
			t.Errorf("parseInt(%s) = %d, %v; strconv: %d, %v", text, n, ok, want, err)
		}
	}
}

// variant renders toks, the tokens of sql, with every literal changed to
// another of its kind: a statement of the same shape with other values.
func variant(sql string, toks []token) string {
	var b strings.Builder
	for _, t := range toks {
		switch {
		case t.kind == tokString:
			b.WriteString(sqlLiteral(t.lit.s + "x'"))
		case t.kind == tokNumber && t.lit.kind == TypeInt:
			b.WriteString(strconv.FormatInt(t.lit.n^1, 10))
		case t.kind == tokNumber:
			f := strconv.FormatFloat(t.lit.f+0.5, 'f', -1, 64)
			if !strings.Contains(f, ".") {
				f += ".0"
			}
			b.WriteString(f)
		default:
			b.WriteString(sql[t.pos:t.end])
		}
		b.WriteByte(' ')
	}
	return b.String()
}

// execFresh executes sql through a parse of its own, as Exec did before it
// kept parses of each shape.
func execFresh(e *Engine, sql string) (*ResultSet, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(stmt)
}

// outcomeDiff describes how an execution differs from one through a fresh
// parse, or returns "" when they agree in result or in error text.
func outcomeDiff(got *ResultSet, gotErr error, want *ResultSet, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("error %v, fresh parse %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("result\n%v\nfresh parse\n%v", got, want)
	}
	return ""
}

// fuzzSeeds are the statements the benchmark workloads and the fixture
// issue, and a few the lexer or the engine once got wrong.
var fuzzSeeds = []string{
	"CREATE TABLE records (id INT PRIMARY KEY, category INT, score FLOAT, name TEXT)",
	"CREATE INDEX records_category ON records (category)",
	"SELECT id, name FROM records WHERE id = 2",
	"SELECT id, score FROM records WHERE id = 1",
	"SELECT id, name, score, category FROM records",
	"UPDATE records SET score = 12.345 WHERE id = 1",
	"SELECT id, name, score FROM records WHERE category = 42 AND score BETWEEN 100 AND 140",
	RepeatQuery("SELECT id FROM records WHERE category = 3", 5),
	"INSERT INTO records VALUES (3, 7, 1.5, 'record-000003'), (0, 1, 2, 'dup')",
	"DELETE FROM records WHERE id IN (0, 2) OR name LIKE 'record-%1'",
	"UPDATE records SET id = 1 WHERE id = 2",
	"SELECT COUNT(*), AVG(score) AS mean FROM records WHERE NOT (id <> 1) ORDER BY name DESC LIMIT 1",
	"DROP TABLE records",
	"INSERT INTO records VALUES (9007199254740993, 1, 2.5, 'x')",
	"SELECT id FROM records WHERE id = 99999999999999999999",
	"INSERT INTO records VALUES (9007199254740992, 0, 0.5, 'a'), (9007199254740993, 0, 0.5, 'b')",
	"SELECT name FROM records WHERE name LIKE 'it''s%' ORDER BY score LIMIT 0",
	"UPDATE records SET score = -1.5, name = NULL WHERE category > -3",
}

// FuzzParse: the lexer and parser never panic, and a statement that parses
// executes against a three-row fixture without panicking. Then a variant of
// the same shape with other literals executes through the parse Exec kept of
// the first, and must agree, as must the table after it, with a twin engine
// that parses every statement afresh.
func FuzzParse(f *testing.F) {
	for _, sql := range fuzzSeeds {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		toks, err := lex(sql)
		if err != nil {
			return
		}
		if _, _, err := parse(sql, toks); err != nil {
			return
		}
		other := variant(sql, toks)
		otherToks, err := lex(other)
		if key, otherKey := appendShape(nil, sql, toks), appendShape(nil, other, otherToks); err != nil || string(otherKey) != string(key) {
			t.Fatalf("variant %q of %q: %v, key %q, want %q", other, sql, err, otherKey, key)
		}
		cached, fresh := NewEngine(), NewEngine()
		for _, e := range []*Engine{cached, fresh} {
			if err := LoadRecords(e, 3); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range []string{sql, other, "SELECT * FROM records"} {
			got, gotErr := cached.Exec(s)
			want, wantErr := execFresh(fresh, s)
			if diff := outcomeDiff(got, gotErr, want, wantErr); diff != "" {
				t.Fatalf("%s, after %s: %s", s, sql, diff)
			}
		}
	})
}

// FuzzExecBytes: exec of a statement's bytes, as the server executes a query
// frame, renders the reply body that exec of its string renders, or fails
// with the same error, first on an engine that has not seen its shape and
// then on one that has it cached. The bytes sit in one buffer that is
// overwritten after every execution, as the server's next frame overwrites
// it, so a parse or a row that kept them would show in a later round or in
// the final table.
func FuzzExecBytes(f *testing.F) {
	for _, sql := range fuzzSeeds {
		f.Add(sql)
	}
	for _, sql := range []string{
		"CREATE TABLE t (\u0160a INT, b INT)",
		"SELECT id FROM records WHERE category\u0085= 2",
		"UPDATE records SET name = '\u0160\u00a0' WHERE id = 1",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		fromString, fromBytes := NewEngine(), NewEngine()
		for _, e := range []*Engine{fromString, fromBytes} {
			if err := LoadRecords(e, 3); err != nil {
				t.Fatal(err)
			}
		}
		var buf []byte
		for _, s := range []string{sql, sql, "SELECT * FROM records"} {
			want, wantErr := execBody(fromString, s)
			buf = append(buf[:0], s...)
			got, gotErr := execBody(fromBytes, buf)
			for i := range buf {
				buf[i] = '?'
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q, after %q: bytes error %v, string error %v", s, sql, gotErr, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%q, after %q: bytes reply %q, string reply %q", s, sql, got, want)
			}
		}
	})
}

// execBody executes sql as the server does, returning the reply body it
// renders.
func execBody[T string | []byte](e *Engine, sql T) ([]byte, error) {
	var out sink
	err := exec(e, sql, &out)
	return out.body, err
}

func TestLikeMatch(t *testing.T) {
	tests := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "a%b%c", true},
		{"abc", "%%%", true},
		{"abc", "a_c", true},
		{"ab", "a_c", false},
		{"aXbXc", "a%c", true},
		{"record-000123", "record-%", true},
	}
	for _, tt := range tests {
		if got := likeMatch(tt.s, tt.p); got != tt.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tt.s, tt.p, got, tt.want)
		}
	}
}

// Property: a string always matches itself and always matches "%".
func TestLikeReflexiveProperty(t *testing.T) {
	f := func(s string) bool {
		// Skip strings containing wildcards; they change the semantics.
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return likeMatch(s, s) && likeMatch(s, "%")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoerce(t *testing.T) {
	tests := []struct {
		v    Value
		t    ColType
		want Value
		err  bool
	}{
		{int64(5), TypeInt, int64(5), false},
		{3.9, TypeInt, int64(3), false},
		{"7", TypeInt, int64(7), false},
		{"x", TypeInt, nil, true},
		{int64(5), TypeFloat, 5.0, false},
		{"2.5", TypeFloat, 2.5, false},
		{"x", TypeFloat, nil, true},
		{int64(5), TypeText, "5", false},
		{2.5, TypeText, "2.5", false},
		{nil, TypeInt, nil, false},
		{-2.5, TypeInt, int64(-2), false},
		{1e300, TypeInt, nil, true},
		{-0x1p63, TypeInt, int64(math.MinInt64), false},
		{math.Inf(-1), TypeInt, nil, true},
		{math.Inf(1), TypeFloat, math.Inf(1), false},
	}
	for _, tt := range tests {
		got, err := coerce(tt.v, tt.t)
		if (err != nil) != tt.err {
			t.Errorf("coerce(%v, %v) err = %v, want err=%v", tt.v, tt.t, err, tt.err)
			continue
		}
		if !tt.err && got.value() != tt.want {
			t.Errorf("coerce(%v, %v) = %v, want %v", tt.v, tt.t, got, tt.want)
		}
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{nil, nil, 0},
		{nil, int64(1), -1},
		{int64(1), nil, 1},
		{int64(1), int64(2), -1},
		{int64(2), 2.0, 0},
		{2.5, int64(2), 1},
		{int64(9007199254740993), 9007199254740992.0, 1},
		{9007199254740992.0, int64(9007199254740993), -1},
		{int64(-3), -2.5, -1},
		{int64(0), math.Copysign(0, -1), 0},
		{int64(math.MaxInt64), 0x1p63, -1},
		{int64(math.MinInt64), -0x1p63, 0},
		{int64(1), math.NaN(), 1},
		{int64(10), "9", -1},
		{2.5, "2.5", 0},
		{"a", "b", -1},
		{"b", "a", 1},
		{"a", "a", 0},
	}
	for _, tt := range tests {
		if got := compare(cellOf(tt.a), cellOf(tt.b)); got != tt.want {
			t.Errorf("compare(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestColTypeString(t *testing.T) {
	if TypeInt.String() != "INT" || TypeFloat.String() != "FLOAT" || TypeText.String() != "TEXT" {
		t.Fatal("type names wrong")
	}
	if got := ColType(9).String(); got != "TYPE(9)" {
		t.Fatalf("unknown type string = %q", got)
	}
}
