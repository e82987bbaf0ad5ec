package sqldb

import (
	"strings"
	"testing"
	"testing/quick"
)

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
	if toks[0].val != "it's" {
		t.Fatalf("string = %q, want it's", toks[0].val)
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
		if tok.kind == tokNumber && tok.num == -5 && tok.isInt {
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
	if upd.Set["a"] != int64(1) || upd.Set["b"] != "two" {
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

// FuzzParse: the lexer and parser never panic, and whatever parses executes
// against a three-row fixture without panicking. Seeds are the statements the
// benchmark workloads and the fixture issue.
func FuzzParse(f *testing.F) {
	for _, sql := range []string{
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
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		e := NewEngine()
		if err := LoadRecords(e, 3); err != nil {
			t.Fatal(err)
		}
		_, _ = e.ExecStmt(stmt)
	})
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
	}
	for _, tt := range tests {
		got, err := coerce(tt.v, tt.t)
		if (err != nil) != tt.err {
			t.Errorf("coerce(%v, %v) err = %v, want err=%v", tt.v, tt.t, err, tt.err)
			continue
		}
		if !tt.err && got != tt.want {
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
		{"a", "b", -1},
		{"b", "a", 1},
		{"a", "a", 0},
	}
	for _, tt := range tests {
		if got := compare(tt.a, tt.b); got != tt.want {
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
