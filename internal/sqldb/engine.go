package sqldb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// ResultSet is the outcome of a query: column names plus rows for SELECT,
// Affected for INSERT/UPDATE/DELETE/DDL.
type ResultSet struct {
	Columns  []string
	Rows     [][]Value
	Affected int
}

// String renders the result set as a text table: the column names, then one
// line per row, tab-separated, NULL for a null cell; a result without columns
// is "OK, n row(s) affected". It renders the result's own wire encoding, so
// it is byte for byte what Conn.Query returns for the same result.
func (rs *ResultSet) String() string {
	var enc, text [1 << 10]byte // a typical result grows neither
	body, err := appendResult(enc[:0], rs)
	if err != nil {
		return err.Error()
	}
	table, err := appendTable(text[:0], body)
	if err != nil {
		return err.Error()
	}
	return string(table)
}

// Engine errors.
var (
	ErrNoSuchTable   = errors.New("sqldb: no such table")
	ErrNoSuchColumn  = errors.New("sqldb: no such column")
	ErrTableExists   = errors.New("sqldb: table already exists")
	ErrDuplicateKey  = errors.New("sqldb: duplicate primary key")
	ErrColumnCount   = errors.New("sqldb: column count mismatch")
	ErrNotComparable = errors.New("sqldb: incomparable operands")
)

// table is one in-memory table. The primary key and every CREATE INDEX
// column have a hash index for equality lookups.
//
// A hash index is correct whenever the engine's lock is free: it chains every
// row's position under the text form of that row's column value. Each
// mutating statement restores that before it unlocks, so a reader never finds
// an index to repair.
type table struct {
	name    string
	columns []ColumnDef
	colIdx  map[string]int
	pkCol   int // -1 when no primary key
	rows    [][]Value
	indexes map[int]*index // by column index
}

// index is a hash index on one column: for each value (text form), the chain
// of the row positions holding it, ascending. The chains are threaded through
// one array, so a value costs a map entry of two int32s and a row four bytes;
// a slice per value would cost the 42,000-key primary index a slice header
// and an allocation per row.
type index struct {
	chains map[string]chain
	next   []int32 // next[pos] is the position after pos in its chain, or -1
}

type chain struct{ first, last int32 }

// add puts the next row, the one at position len(ix.next), under key.
func (ix *index) add(key string) {
	pos := int32(len(ix.next))
	ix.next = append(ix.next, -1)
	c, ok := ix.chains[key]
	if ok {
		ix.next[c.last] = pos
	} else {
		c.first = pos
	}
	c.last = pos
	ix.chains[key] = c
}

// Engine is the in-memory database. It is safe for concurrent use; reads
// take a shared lock and mutations an exclusive one.
//
// A mutating statement selects, then applies: under the write lock it first
// resolves columns, coerces values, collects the matching positions and
// checks primary-key uniqueness, and only then touches the rows. A statement
// that returns an error has changed nothing.
type Engine struct {
	mu     sync.RWMutex
	tables map[string]*table
}

// NewEngine returns an empty database.
func NewEngine() *Engine {
	return &Engine{tables: make(map[string]*table)}
}

// Exec parses and executes one SQL statement.
func (e *Engine) Exec(sql string) (*ResultSet, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement.
func (e *Engine) ExecStmt(stmt Statement) (*ResultSet, error) {
	switch s := stmt.(type) {
	case *CreateTable:
		return e.createTable(s)
	case *CreateIndex:
		return e.createIndex(s)
	case *DropTable:
		return e.dropTable(s)
	case *Insert:
		return e.insert(s)
	case *Select:
		return e.query(s)
	case *Update:
		return e.update(s)
	case *Delete:
		return e.delete(s)
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
}

// TableNames lists the tables in lexical order.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RowCount returns the number of rows in a table.
func (e *Engine) RowCount(name string) (int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, err := e.table(name)
	if err != nil {
		return 0, err
	}
	return len(t.rows), nil
}

// table resolves a table by name. Caller holds the lock.
func (e *Engine) table(name string) (*table, error) {
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// column resolves a column of t by name.
func (t *table) column(name string) (int, error) {
	ci, ok := t.colIdx[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.name, name)
	}
	return ci, nil
}

func (e *Engine) createTable(s *CreateTable) (*ResultSet, error) {
	if len(s.Columns) == 0 {
		return nil, errors.New("sqldb: table needs at least one column")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, ok := e.tables[key]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, s.Name)
	}
	t := &table{
		name:    s.Name,
		columns: s.Columns,
		colIdx:  make(map[string]int, len(s.Columns)),
		pkCol:   -1,
		indexes: make(map[int]*index),
	}
	for i, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if _, dup := t.colIdx[lc]; dup {
			return nil, fmt.Errorf("sqldb: duplicate column %s", c.Name)
		}
		t.colIdx[lc] = i
		if c.PrimaryKey {
			if t.pkCol != -1 {
				return nil, errors.New("sqldb: multiple primary keys")
			}
			t.pkCol = i
		}
	}
	if t.pkCol != -1 {
		t.reindex(t.pkCol)
	}
	e.tables[key] = t
	return &ResultSet{}, nil
}

func (e *Engine) createIndex(s *CreateIndex) (*ResultSet, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.table(s.Table)
	if err != nil {
		return nil, err
	}
	ci, err := t.column(s.Column)
	if err != nil {
		return nil, err
	}
	if _, exists := t.indexes[ci]; !exists {
		t.reindex(ci)
	}
	return &ResultSet{}, nil
}

func (e *Engine) dropTable(s *DropTable) (*ResultSet, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, ok := e.tables[key]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Name)
	}
	delete(e.tables, key)
	return &ResultSet{}, nil
}

// reindex builds column ci's hash index from the rows. Caller holds the
// write lock.
func (t *table) reindex(ci int) {
	distinct := 0
	if old := t.indexes[ci]; old != nil {
		distinct = len(old.chains)
	}
	ix := &index{chains: make(map[string]chain, distinct), next: make([]int32, 0, len(t.rows))}
	for _, row := range t.rows {
		ix.add(formatValue(row[ci]))
	}
	t.indexes[ci] = ix
}

func (e *Engine) insert(s *Insert) (*ResultSet, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.table(s.Table)
	if err != nil {
		return nil, err
	}
	// Resolve the column order for the VALUES tuples.
	order := make([]int, 0, len(t.columns))
	if len(s.Columns) == 0 {
		for i := range t.columns {
			order = append(order, i)
		}
	} else {
		for _, name := range s.Columns {
			ci, err := t.column(name)
			if err != nil {
				return nil, err
			}
			order = append(order, ci)
		}
	}
	if len(t.rows)+len(s.Rows) > math.MaxInt32 {
		return nil, fmt.Errorf("sqldb: table %s is full", t.name) // the indexes hold positions as int32
	}
	rows := make([][]Value, len(s.Rows))
	var pending map[string]bool // primary keys of this statement's own rows
	if t.pkCol != -1 {
		pending = make(map[string]bool, len(s.Rows))
	}
	for i, tuple := range s.Rows {
		if len(tuple) != len(order) {
			return nil, fmt.Errorf("%w: got %d values for %d columns", ErrColumnCount, len(tuple), len(order))
		}
		row := make([]Value, len(t.columns))
		for j, v := range tuple {
			cv, err := coerce(v, t.columns[order[j]].Type)
			if err != nil {
				return nil, err
			}
			row[order[j]] = cv
		}
		if t.pkCol != -1 {
			pk := formatValue(row[t.pkCol])
			if _, held := t.indexes[t.pkCol].chains[pk]; held || pending[pk] {
				return nil, fmt.Errorf("%w: %s", ErrDuplicateKey, pk)
			}
			pending[pk] = true
		}
		rows[i] = row
	}
	for _, row := range rows {
		t.rows = append(t.rows, row)
		for ci, ix := range t.indexes {
			ix.add(formatValue(row[ci]))
		}
	}
	return &ResultSet{Affected: len(rows)}, nil
}

func (e *Engine) update(s *Update) (*ResultSet, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.table(s.Table)
	if err != nil {
		return nil, err
	}
	type setOp struct {
		ci  int
		val Value
	}
	ops := make([]setOp, 0, len(s.Set))
	for col, v := range s.Set {
		ci, err := t.column(col)
		if err != nil {
			return nil, err
		}
		cv, err := coerce(v, t.columns[ci].Type)
		if err != nil {
			return nil, err
		}
		ops = append(ops, setOp{ci: ci, val: cv})
	}
	positions, err := t.matching(s.Where)
	if err != nil {
		return nil, err
	}
	if len(positions) == 0 {
		return &ResultSet{}, nil
	}
	for _, op := range ops {
		if op.ci != t.pkCol {
			continue
		}
		// Every matched row takes this key: it must be one row, and no other
		// row may hold the key already.
		pk := formatValue(op.val)
		holder, held := t.indexes[t.pkCol].chains[pk]
		if len(positions) > 1 || (held && int(holder.first) != positions[0]) {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateKey, pk)
		}
	}
	for _, pos := range positions {
		for _, op := range ops {
			t.rows[pos][op.ci] = op.val
		}
	}
	for _, op := range ops {
		if _, indexed := t.indexes[op.ci]; indexed {
			t.reindex(op.ci)
		}
	}
	return &ResultSet{Affected: len(positions)}, nil
}

func (e *Engine) delete(s *Delete) (*ResultSet, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.table(s.Table)
	if err != nil {
		return nil, err
	}
	positions, err := t.matching(s.Where)
	if err != nil {
		return nil, err
	}
	if len(positions) == 0 {
		return &ResultSet{}, nil
	}
	// Close the gaps: move each run of kept rows between two deleted
	// positions down over the rows deleted before it.
	w := positions[0]
	for i, pos := range positions {
		end := len(t.rows)
		if i+1 < len(positions) {
			end = positions[i+1]
		}
		w += copy(t.rows[w:], t.rows[pos+1:end])
	}
	clear(t.rows[w:]) // release references past the new length
	t.rows = t.rows[:w]
	// Positions shifted, so every index is rebuilt.
	for ci := range t.indexes {
		t.reindex(ci)
	}
	return &ResultSet{Affected: len(positions)}, nil
}

func (e *Engine) query(s *Select) (*ResultSet, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, err := e.table(s.Table)
	if err != nil {
		return nil, err
	}
	positions, err := t.matching(s.Where)
	if err != nil {
		return nil, err
	}
	return project(s, t, positions)
}

// matching returns the positions of the rows that satisfy where, ascending.
// It is the one row-selection path: SELECT, UPDATE and DELETE all find their
// rows here. Caller holds at least the read lock.
func (t *table) matching(where Expr) ([]int, error) {
	var matched []int
	pos, via := t.candidates(where)
	for pos >= 0 && pos < len(t.rows) {
		ok, err := evalBool(where, t, t.rows[pos])
		if err != nil {
			return nil, err
		}
		if ok {
			matched = append(matched, pos)
		}
		if via == nil {
			pos++
		} else {
			pos = int(via.next[pos])
		}
	}
	return matched, nil
}

// candidates narrows where to the rows worth checking: the first of them and
// the index whose chain leads to the rest. Walking the top-level ANDs left to
// right, it picks the chain of the first `col = literal` conjunct over an
// indexed column (first is -1 when no row holds the literal); with no such
// conjunct via is nil, and every row from 0 on must be checked. Candidates
// are always re-checked against the full WHERE clause, so the choice only
// affects performance.
func (t *table) candidates(where Expr) (first int, via *index) {
	if l, ok := where.(*Logical); ok && l.Op == OpAnd {
		if first, via = t.candidates(l.L); via != nil {
			return first, via
		}
		return t.candidates(l.R)
	}
	if via, key := indexableEq(where, t); via != nil {
		if c, held := via.chains[key]; held {
			return int(c.first), via
		}
		return -1, via
	}
	return 0, nil
}

// indexableEq recognizes `col = literal` (either side) over an indexed
// column and returns that index and the literal's key in it, or a nil index.
func indexableEq(where Expr, t *table) (ix *index, key string) {
	cmp, isCmp := where.(*Cmp)
	if !isCmp || cmp.Op != OpEq {
		return nil, ""
	}
	colExpr, litExpr := cmp.L, cmp.R
	if _, isCol := colExpr.(*ColRef); !isCol {
		colExpr, litExpr = cmp.R, cmp.L
	}
	col, isCol := colExpr.(*ColRef)
	lit, isLit := litExpr.(*Literal)
	if !isCol || !isLit {
		return nil, ""
	}
	ci, exists := t.colIdx[strings.ToLower(col.Name)]
	if ix = t.indexes[ci]; !exists || ix == nil {
		return nil, ""
	}
	cv, err := coerce(lit.Val, t.columns[ci].Type)
	if err != nil {
		return nil, ""
	}
	return ix, formatValue(cv)
}

// project applies ORDER BY, aggregates, column projection, and LIMIT to the
// matched row positions, which it may reorder.
func project(s *Select, t *table, matched []int) (*ResultSet, error) {
	if s.OrderBy != "" {
		ci, err := t.column(s.OrderBy)
		if err != nil {
			return nil, err
		}
		sort.SliceStable(matched, func(i, j int) bool {
			c := compare(t.rows[matched[i]][ci], t.rows[matched[j]][ci])
			if s.Desc {
				return c > 0
			}
			return c < 0
		})
	}

	if isAggregate(s.Items) {
		return aggregate(s, t, matched)
	}

	// Resolve the projection once.
	cols, indices := make([]string, 0, len(s.Items)), make([]int, 0, len(s.Items))
	for _, item := range s.Items {
		if item.Star {
			for i, c := range t.columns {
				cols = append(cols, c.Name)
				indices = append(indices, i)
			}
			continue
		}
		ci, err := t.column(item.Column)
		if err != nil {
			return nil, err
		}
		name := item.Column
		if item.Alias != "" {
			name = item.Alias
		}
		cols = append(cols, name)
		indices = append(indices, ci)
	}

	limit := s.Limit
	if limit < 0 || limit > len(matched) {
		limit = len(matched)
	}
	// Every row is a window of one backing array.
	width := len(indices)
	out, cells := make([][]Value, limit), make([]Value, limit*width)
	for r, pos := range matched[:limit] {
		row := cells[r*width : (r+1)*width : (r+1)*width]
		for i, ci := range indices {
			row[i] = t.rows[pos][ci]
		}
		out[r] = row
	}
	return &ResultSet{Columns: cols, Rows: out}, nil
}

func isAggregate(items []SelectItem) bool {
	for _, it := range items {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

func aggregate(s *Select, t *table, matched []int) (*ResultSet, error) {
	cols := make([]string, len(s.Items))
	row := make([]Value, len(s.Items))
	for i, item := range s.Items {
		if item.Agg == AggNone {
			return nil, errors.New("sqldb: mixing aggregates and plain columns is not supported")
		}
		name := item.Alias
		if name == "" {
			name = aggName(item.Agg)
		}
		cols[i] = name

		if item.Agg == AggCount && item.Star {
			row[i] = int64(len(matched))
			continue
		}
		ci, err := t.column(item.Column)
		if err != nil {
			return nil, err
		}
		v, err := foldAgg(item.Agg, t, matched, ci)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return &ResultSet{Columns: cols, Rows: [][]Value{row}}, nil
}

func aggName(a AggFunc) string {
	switch a {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "agg"
	}
}

func foldAgg(a AggFunc, t *table, matched []int, ci int) (Value, error) {
	switch a {
	case AggCount:
		n := int64(0)
		for _, pos := range matched {
			v := t.rows[pos][ci]
			if v != nil {
				n++
			}
		}
		return n, nil
	case AggSum, AggAvg:
		sum := 0.0
		n := 0
		for _, pos := range matched {
			v := t.rows[pos][ci]
			if v == nil {
				continue
			}
			f, ok := toFloat(v)
			if !ok {
				return nil, fmt.Errorf("sqldb: %s over non-numeric column", aggName(a))
			}
			sum += f
			n++
		}
		if a == AggSum {
			return sum, nil
		}
		if n == 0 {
			return nil, nil
		}
		return sum / float64(n), nil
	case AggMin, AggMax:
		var best Value
		for _, pos := range matched {
			v := t.rows[pos][ci]
			if v == nil {
				continue
			}
			if best == nil {
				best = v
				continue
			}
			c := compare(v, best)
			if (a == AggMin && c < 0) || (a == AggMax && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return nil, fmt.Errorf("sqldb: unknown aggregate %d", a)
	}
}

// evalBool evaluates a WHERE expression; nil means "all rows".
func evalBool(e Expr, t *table, row []Value) (bool, error) {
	if e == nil {
		return true, nil
	}
	switch x := e.(type) {
	case *Logical:
		l, err := evalBool(x.L, t, row)
		if err != nil {
			return false, err
		}
		if x.Op == OpAnd && !l {
			return false, nil
		}
		if x.Op == OpOr && l {
			return true, nil
		}
		return evalBool(x.R, t, row)
	case *Not:
		v, err := evalBool(x.E, t, row)
		return !v, err
	case *Cmp:
		l, err := evalValue(x.L, t, row)
		if err != nil {
			return false, err
		}
		r, err := evalValue(x.R, t, row)
		if err != nil {
			return false, err
		}
		// SQL three-valued logic collapsed to two: NULL comparisons are
		// false except = NULL / != NULL which test for null-ness.
		if l == nil || r == nil {
			switch x.Op {
			case OpEq:
				return l == nil && r == nil, nil
			case OpNe:
				return (l == nil) != (r == nil), nil
			default:
				return false, nil
			}
		}
		c := compare(l, r)
		switch x.Op {
		case OpEq:
			return c == 0, nil
		case OpNe:
			return c != 0, nil
		case OpLt:
			return c < 0, nil
		case OpLe:
			return c <= 0, nil
		case OpGt:
			return c > 0, nil
		case OpGe:
			return c >= 0, nil
		}
		return false, fmt.Errorf("sqldb: unknown comparison op %d", x.Op)
	case *Between:
		v, err := evalValue(x.E, t, row)
		if err != nil {
			return false, err
		}
		lo, err := evalValue(x.Lo, t, row)
		if err != nil {
			return false, err
		}
		hi, err := evalValue(x.Hi, t, row)
		if err != nil {
			return false, err
		}
		if v == nil || lo == nil || hi == nil {
			return false, nil
		}
		return compare(v, lo) >= 0 && compare(v, hi) <= 0, nil
	case *In:
		v, err := evalValue(x.E, t, row)
		if err != nil {
			return false, err
		}
		for _, le := range x.List {
			lv, err := evalValue(le, t, row)
			if err != nil {
				return false, err
			}
			if v == nil && lv == nil {
				return true, nil
			}
			if v != nil && lv != nil && compare(v, lv) == 0 {
				return true, nil
			}
		}
		return false, nil
	case *Like:
		v, err := evalValue(x.E, t, row)
		if err != nil {
			return false, err
		}
		if v == nil {
			return false, nil
		}
		return likeMatch(formatValue(v), x.Pattern), nil
	default:
		return false, fmt.Errorf("sqldb: expression %T is not boolean", e)
	}
}

// evalValue evaluates a value expression against a row.
func evalValue(e Expr, t *table, row []Value) (Value, error) {
	switch x := e.(type) {
	case *ColRef:
		ci, ok := t.colIdx[strings.ToLower(x.Name)]
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.name, x.Name)
		}
		return row[ci], nil
	case *Literal:
		return x.Val, nil
	default:
		return nil, fmt.Errorf("sqldb: expression %T is not a value", e)
	}
}
