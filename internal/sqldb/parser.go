package sqldb

import (
	"fmt"
	"strings"
)

// Parse turns one SQL statement into its AST.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	stmt, _, err := parse(toks)
	return stmt, err
}

// A binder puts the value of a literal token, of a statement of the same
// shape, in place of one literal of a parse, rechecking what the parser did.
type binder func(token) error

// parse builds the statement toks spell and the binders of its number and
// string tokens, in token order.
func parse(toks []token) (Statement, []binder, error) {
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, nil, fmt.Errorf("sqldb: trailing input at %d: %q", p.peek().pos, p.peek().val)
	}
	return stmt, p.binds, nil
}

type parser struct {
	toks  []token
	i     int
	binds []binder
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// at reports whether the current token has the given kind (and value, when
// non-empty).
func (p *parser) at(kind tokenKind, val string) bool {
	t := p.peek()
	return t.kind == kind && (val == "" || t.val == val)
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokenKind, val string) bool {
	if p.at(kind, val) {
		p.next()
		return true
	}
	return false
}

// expect consumes a token or fails with a positioned error.
func (p *parser) expect(kind tokenKind, val string) (token, error) {
	if p.at(kind, val) {
		return p.next(), nil
	}
	t := p.peek()
	want := val
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, fmt.Errorf("sqldb: expected %s at %d, got %q", want, t.pos, t.val)
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	// Permit keywords in identifier position only where unambiguous (e.g. a
	// column named "key" would arrive as an identifier anyway; true
	// keywords are rejected).
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqldb: expected identifier at %d, got %q", t.pos, t.val)
	}
	p.next()
	return t.val, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("sqldb: expected statement keyword at %d, got %q", t.pos, t.val)
	}
	switch t.val {
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "SELECT":
		return p.parseSelect()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %q", t.val)
	}
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.accept(tokKeyword, "TABLE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var cols []ColumnDef
		for {
			colName, err := p.ident()
			if err != nil {
				return nil, err
			}
			var typ ColType
			tt := p.next()
			switch tt.val {
			case "INT":
				typ = TypeInt
			case "FLOAT":
				typ = TypeFloat
			case "TEXT":
				typ = TypeText
			default:
				return nil, fmt.Errorf("sqldb: unknown column type %q at %d", tt.val, tt.pos)
			}
			def := ColumnDef{Name: colName, Type: typ}
			if p.accept(tokKeyword, "PRIMARY") {
				if _, err := p.expect(tokKeyword, "KEY"); err != nil {
					return nil, err
				}
				def.PrimaryKey = true
			}
			cols = append(cols, def)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &CreateTable{Name: name, Columns: cols}, nil

	case p.accept(tokKeyword, "INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &CreateIndex{Name: name, Table: table, Column: col}, nil

	default:
		return nil, fmt.Errorf("sqldb: CREATE must be followed by TABLE or INDEX")
	}
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Value
		for {
			r, i := len(ins.Rows), len(row)
			v, err := p.literal(func(v Value) { ins.Rows[r][i] = v })
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return ins, nil
}

// literal parses a constant: number, string, or NULL. A number's or string's
// binder hands the value to set, which stores it where the parse put it.
func (p *parser) literal(set func(Value)) (Value, error) {
	t := p.next()
	switch t.kind {
	case tokNumber, tokString:
		p.binds = append(p.binds, func(t token) error { set(t.lit); return nil })
		return t.lit, nil
	case tokKeyword:
		if t.val == "NULL" {
			return nil, nil
		}
	}
	return nil, fmt.Errorf("sqldb: expected literal at %d, got %q", t.pos, t.val)
}

var aggNames = map[string]AggFunc{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func (p *parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	sel := &Select{Limit: -1}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.Table = table

	if p.accept(tokKeyword, "WHERE") {
		where, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		sel.Where = where
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = col
		if p.accept(tokKeyword, "DESC") {
			sel.Desc = true
		} else {
			p.accept(tokKeyword, "ASC")
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		if sel.Limit, err = limit(p.next()); err != nil {
			return nil, err
		}
		p.binds = append(p.binds, func(t token) (err error) { sel.Limit, err = limit(t); return err })
	}
	return sel, nil
}

// limit reads LIMIT's operand, a non-negative integer.
func limit(t token) (int, error) {
	n, isInt := t.lit.(int64)
	if !isInt || n < 0 {
		return 0, fmt.Errorf("sqldb: LIMIT needs a non-negative integer at %d", t.pos)
	}
	return int(n), nil
}

func (p *parser) selectItem() (SelectItem, error) {
	t := p.peek()
	if t.kind == tokSymbol && t.val == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	if t.kind == tokKeyword {
		if agg, ok := aggNames[t.val]; ok {
			p.next()
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return SelectItem{}, err
			}
			item := SelectItem{Agg: agg}
			if p.accept(tokSymbol, "*") {
				if agg != AggCount {
					return SelectItem{}, fmt.Errorf("sqldb: only COUNT may take *")
				}
				item.Star = true
			} else {
				col, err := p.ident()
				if err != nil {
					return SelectItem{}, err
				}
				item.Column = col
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return SelectItem{}, err
			}
			if p.accept(tokKeyword, "AS") {
				alias, err := p.ident()
				if err != nil {
					return SelectItem{}, err
				}
				item.Alias = alias
			}
			return item, nil
		}
	}
	col, err := p.ident()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Column: col}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	}
	return item, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: table, Set: map[string]Value{}}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		v, err := p.literal(func(v Value) { upd.Set[col] = v })
		if err != nil {
			return nil, err
		}
		upd.Set[col] = v
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.accept(tokKeyword, "WHERE") {
		where, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		upd.Where = where
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.accept(tokKeyword, "WHERE") {
		where, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		del.Where = where
	}
	return del, nil
}

// Expression grammar (highest binding last):
//
//	or     := and (OR and)*
//	and    := unary (AND unary)*
//	unary  := NOT unary | ( or ) | predicate
//	predicate := operand (cmp operand | BETWEEN lit AND lit | IN (...) | LIKE 'pat' | NOT (BETWEEN|IN|LIKE) ...)
//	operand := column | literal

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Logical{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Logical{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	if p.accept(tokSymbol, "(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parsePredicate()
}

var cmpOps = map[string]CmpOp{
	"=": OpEq, "!=": OpNe, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parsePredicate() (Expr, error) {
	operand, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	negate := p.accept(tokKeyword, "NOT")
	t := p.peek()
	var e Expr
	switch {
	case t.kind == tokSymbol && cmpOps[t.val] != 0:
		if negate {
			return nil, fmt.Errorf("sqldb: NOT before comparison at %d", t.pos)
		}
		p.next()
		r, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &Cmp{Op: cmpOps[t.val], L: operand, R: r}, nil

	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		e = &Between{E: operand, Lo: lo, Hi: hi}

	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			v, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			list = append(list, v)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		e = &In{E: operand, List: list}

	case p.accept(tokKeyword, "LIKE"):
		t := p.next()
		if t.kind != tokString {
			return nil, fmt.Errorf("sqldb: LIKE needs a string pattern at %d", t.pos)
		}
		like := &Like{E: operand, Pattern: t.val}
		p.binds = append(p.binds, func(t token) error { like.Pattern = t.val; return nil }) // the key makes t a string
		e = like

	default:
		return nil, fmt.Errorf("sqldb: expected predicate at %d, got %q", t.pos, t.val)
	}
	if negate {
		return &Not{E: e}, nil
	}
	return e, nil
}

func (p *parser) parseOperand() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		p.next()
		return &ColRef{Name: t.val}, nil
	case tokNumber, tokString:
		lit := &Literal{}
		var err error
		lit.Val, err = p.literal(func(v Value) { lit.Val = v })
		return lit, err
	case tokKeyword:
		if t.val == "NULL" {
			p.next()
			return &Literal{Val: nil}, nil
		}
	}
	return nil, fmt.Errorf("sqldb: expected column or literal at %d, got %q", t.pos, t.val)
}

// MustParse parses sql and panics on error; intended for tests and fixture
// setup.
func MustParse(sql string) Statement {
	s, err := Parse(sql)
	if err != nil {
		panic(fmt.Sprintf("MustParse(%s): %v", strings.TrimSpace(sql), err))
	}
	return s
}
