package sqldb

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// A sink receives one statement's result as the engine produces it: affected
// for a write, or columns and then each row for a SELECT. Neither the names
// nor a row's cells outlive the call. A collecting sink builds the ResultSet
// that Exec returns; the server's appends the result's frameResult body to
// body, allocating nothing but its growth. The engine calls a sink only once
// the statement can no longer fail.
type sink struct {
	collect bool
	rs      *ResultSet // collect: the result
	cells   []Value    // collect: the backing array of the rows still to come
	body    []byte     // otherwise: the frameResult body so far
}

// affected takes a write's (or DDL's) count of affected rows.
func (k *sink) affected(n int) {
	if k.collect {
		k.rs = &ResultSet{Affected: n}
		return
	}
	k.body = appendHead(k.body, n, nil, 0)
}

// columns takes a SELECT's column names and the number of rows to follow.
func (k *sink) columns(names []string, nrows int) {
	if k.collect {
		k.rs = &ResultSet{Columns: slices.Clone(names), Rows: make([][]Value, 0, nrows)}
		k.cells = make([]Value, nrows*len(names)) // every row is a window of one backing array
		return
	}
	k.body = appendHead(k.body, 0, names, nrows)
}

// row takes one row's cells.
func (k *sink) row(cells []Value) {
	if k.collect {
		w := len(cells)
		row := k.cells[:w:w]
		copy(row, cells)
		k.cells = k.cells[w:]
		k.rs.Rows = append(k.rs.Rows, row)
		return
	}
	k.body = appendRow(k.body, cells)
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

// table is one in-memory table. Its rows lie end to end in one cell array,
// len(columns) cells a row, so a row costs its cells and no slice header of
// its own. The primary key and every CREATE INDEX column have a hash index
// for equality lookups.
//
// A hash index is correct whenever the engine's lock is free: it chains every
// row's position under that row's column value. Each mutating statement
// restores that before it unlocks, so a reader never finds an index to
// repair.
type table struct {
	name    string
	columns []ColumnDef
	colIdx  map[string]int
	pkCol   int            // -1 when no primary key
	cells   []Value        // row pos is cells[pos*w : pos*w+w], w = len(columns)
	indexes map[int]*index // by column index
}

// nrows returns the number of rows.
func (t *table) nrows() int { return len(t.cells) / len(t.columns) }

// row returns row pos's cells, capped so that an append cannot reach the
// next row.
func (t *table) row(pos int) []Value {
	w := len(t.columns)
	return t.cells[pos*w : pos*w+w : pos*w+w]
}

// index is a hash index on one column: for each value, the chain of the row
// positions holding it, ascending. The chains are threaded through one array,
// so a value costs a map entry and a row four bytes; a slice per value would
// cost the 42,000-key primary index a slice header and an allocation per row.
//
// A value keys its chain as itself, never as its text: an INT column's
// values key ints (16 bytes an entry), every other value, NULL included,
// keys vals as the row's own cell, so no key is allocated. Two values of the
// column's type are one key when compare calls them equal: -0 and 0 are one
// key, NULL and 'NULL' two, and NaN, which no key would ever find again, is
// refused by coerce.
type index struct {
	ints map[int64]chain // an INT column's non-NULL values; nil on any other column
	vals map[Value]chain // every other value
	next []int32         // next[pos] is the position after pos in its chain, or -1
}

type chain struct{ first, last int32 }

// newIndex returns an empty index for a column of type typ, sized for
// distinct values and rows rows.
func newIndex(typ ColType, distinct, rows int) *index {
	ix := &index{next: make([]int32, 0, rows)}
	if typ == TypeInt {
		ix.ints = make(map[int64]chain, distinct)
		ix.vals = make(map[Value]chain)
	} else {
		ix.vals = make(map[Value]chain, distinct)
	}
	return ix
}

// lookup returns the chain of the rows holding v, a value coerced to the
// column's type.
func (ix *index) lookup(v Value) (chain, bool) {
	if n, ok := v.(int64); ok && ix.ints != nil {
		c, held := ix.ints[n]
		return c, held
	}
	c, held := ix.vals[v]
	return c, held
}

// add puts the next row, the one at position len(ix.next), under its value v.
func (ix *index) add(v Value) {
	pos := int32(len(ix.next))
	ix.next = append(ix.next, -1)
	c, ok := ix.lookup(v)
	if ok {
		ix.next[c.last] = pos
	} else {
		c.first = pos
	}
	c.last = pos
	if n, isInt := v.(int64); isInt && ix.ints != nil {
		ix.ints[n] = c
	} else {
		ix.vals[v] = c
	}
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

	shapeMu sync.RWMutex
	shapes  map[string]chan *instance // each shape's free parses, by shape key
}

const (
	maxShapes    = 1024    // a full shape table is cleared before the next shape goes in
	maxShapeText = 4 << 10 // a longer statement is not cached
	freeParses   = 8       // parses kept per shape, for its statements executing at once
)

// instance is one parse of a shape and its binders, in token order.
type instance struct {
	stmt  Statement
	binds []binder
}

// NewEngine returns an empty database.
func NewEngine() *Engine {
	return &Engine{tables: make(map[string]*table), shapes: make(map[string]chan *instance)}
}

// Exec executes one SQL statement. Every statement is lexed, but only the
// first of a shape (appendShape) is parsed: a later one rebinds the literals
// of a parse of its shape that no other execution holds. Table, column and
// index resolution stay per execution, so nothing invalidates a parse.
func (e *Engine) Exec(sql string) (*ResultSet, error) {
	out := sink{collect: true}
	if err := e.exec(sql, &out); err != nil {
		return nil, err
	}
	return out.rs, nil
}

// exec executes one SQL statement into out: Exec's work, shared with the
// server, which renders the result straight into its reply frame.
func (e *Engine) exec(sql string, out *sink) error {
	var tokBuf [32]token
	var keyBuf [256]byte // a longer statement spills to the heap
	toks, err := appendTokens(tokBuf[:0], sql)
	if err != nil {
		return err
	}
	key := appendShape(keyBuf[:0], toks)
	e.shapeMu.RLock()
	free := e.shapes[string(key)] // nil for a new shape: never ready
	e.shapeMu.RUnlock()
	var in *instance
	select {
	case in = <-free:
	default:
		stmt, binds, err := parse(slices.Clone(toks)) // the parser would take tokBuf to the heap
		if err != nil {
			return err
		}
		switch stmt.(type) {
		case *CreateTable, *CreateIndex, *DropTable:
			return e.execStmt(stmt, out) // DDL is rare, and CREATE TABLE keeps its Columns
		}
		in = &instance{stmt: stmt, binds: binds}
		if free == nil && len(sql) <= maxShapeText {
			free = make(chan *instance, freeParses) // replacing a racing add of the shape only drops its parses
			e.shapeMu.Lock()
			if len(e.shapes) >= maxShapes {
				clear(e.shapes)
			}
			e.shapes[string(key)] = free
			e.shapeMu.Unlock()
		}
	}
	defer func() {
		select {
		case free <- in: // a full free list, or no shape, drops it
		default:
		}
	}()
	k := 0
	for _, t := range toks {
		if t.kind == tokNumber || t.kind == tokString {
			if err := in.binds[k](t); err != nil {
				return err
			}
			k++
		}
	}
	return e.execStmt(in.stmt, out)
}

// ExecStmt executes a parsed statement.
func (e *Engine) ExecStmt(stmt Statement) (*ResultSet, error) {
	out := sink{collect: true}
	if err := e.execStmt(stmt, &out); err != nil {
		return nil, err
	}
	return out.rs, nil
}

// execStmt executes a parsed statement into out.
func (e *Engine) execStmt(stmt Statement, out *sink) error {
	var n int
	var err error
	switch s := stmt.(type) {
	case *Select:
		return e.query(s, out)
	case *CreateTable:
		err = e.createTable(s)
	case *CreateIndex:
		err = e.createIndex(s)
	case *DropTable:
		err = e.dropTable(s)
	case *Insert:
		n, err = e.insert(s)
	case *Update:
		n, err = e.update(s)
	case *Delete:
		n, err = e.delete(s)
	default:
		return fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
	if err != nil {
		return err
	}
	out.affected(n)
	return nil
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

func (e *Engine) createTable(s *CreateTable) error {
	if len(s.Columns) == 0 {
		return errors.New("sqldb: table needs at least one column")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, ok := e.tables[key]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, s.Name)
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
			return fmt.Errorf("sqldb: duplicate column %s", c.Name)
		}
		t.colIdx[lc] = i
		if c.PrimaryKey {
			if t.pkCol != -1 {
				return errors.New("sqldb: multiple primary keys")
			}
			t.pkCol = i
		}
	}
	if t.pkCol != -1 {
		t.reindex(t.pkCol)
	}
	e.tables[key] = t
	return nil
}

func (e *Engine) createIndex(s *CreateIndex) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.table(s.Table)
	if err != nil {
		return err
	}
	ci, err := t.column(s.Column)
	if err != nil {
		return err
	}
	if _, exists := t.indexes[ci]; !exists {
		t.reindex(ci)
	}
	return nil
}

func (e *Engine) dropTable(s *DropTable) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, ok := e.tables[key]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, s.Name)
	}
	delete(e.tables, key)
	return nil
}

// reindex builds column ci's hash index from the rows. Caller holds the
// write lock.
func (t *table) reindex(ci int) {
	distinct := 0
	if old := t.indexes[ci]; old != nil {
		distinct = len(old.ints) + len(old.vals)
	}
	n := t.nrows()
	ix := newIndex(t.columns[ci].Type, distinct, n)
	for pos := range n {
		ix.add(t.row(pos)[ci])
	}
	t.indexes[ci] = ix
}

func (e *Engine) insert(s *Insert) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.table(s.Table)
	if err != nil {
		return 0, err
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
				return 0, err
			}
			order = append(order, ci)
		}
	}
	if t.nrows()+len(s.Rows) > math.MaxInt32 {
		return 0, fmt.Errorf("sqldb: table %s is full", t.name) // the indexes hold positions as int32
	}
	w := len(t.columns)
	staged := make([]Value, len(s.Rows)*w) // the new rows, appended to the table at once
	var pending map[Value]bool             // primary keys of this statement's own rows
	if t.pkCol != -1 {
		pending = make(map[Value]bool, len(s.Rows))
	}
	for i, tuple := range s.Rows {
		if len(tuple) != len(order) {
			return 0, fmt.Errorf("%w: got %d values for %d columns", ErrColumnCount, len(tuple), len(order))
		}
		row := staged[i*w : i*w+w]
		for j, v := range tuple {
			cv, err := coerce(v, t.columns[order[j]].Type)
			if err != nil {
				return 0, err
			}
			row[order[j]] = cv
		}
		if t.pkCol != -1 {
			pk := row[t.pkCol]
			if _, held := t.indexes[t.pkCol].lookup(pk); held || pending[pk] {
				return 0, fmt.Errorf("%w: %s", ErrDuplicateKey, formatValue(pk))
			}
			pending[pk] = true
		}
	}
	t.cells = append(t.cells, staged...)
	for ci, ix := range t.indexes {
		for i := range s.Rows {
			ix.add(staged[i*w+ci])
		}
	}
	return len(s.Rows), nil
}

func (e *Engine) update(s *Update) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.table(s.Table)
	if err != nil {
		return 0, err
	}
	type setOp struct {
		ci  int
		val Value
	}
	var names [8]string
	cols := names[:0]
	for col := range s.Set {
		cols = append(cols, col)
	}
	slices.Sort(cols) // not map order: the same error, and winner of two spellings, every run
	ops := make([]setOp, 0, len(s.Set))
	for _, col := range cols {
		ci, err := t.column(col)
		if err != nil {
			return 0, err
		}
		cv, err := coerce(s.Set[col], t.columns[ci].Type)
		if err != nil {
			return 0, err
		}
		ops = append(ops, setOp{ci: ci, val: cv})
	}
	var buf [stackRows]int
	positions, err := t.matching(s.Where, buf[:0])
	if err != nil {
		return 0, err
	}
	if len(positions) == 0 {
		return 0, nil
	}
	for _, op := range ops {
		if op.ci != t.pkCol {
			continue
		}
		// Every matched row takes this key: it must be one row, and no other
		// row may hold the key already.
		holder, held := t.indexes[t.pkCol].lookup(op.val)
		if len(positions) > 1 || (held && int(holder.first) != positions[0]) {
			return 0, fmt.Errorf("%w: %s", ErrDuplicateKey, formatValue(op.val))
		}
	}
	for _, pos := range positions {
		row := t.row(pos)
		for _, op := range ops {
			row[op.ci] = op.val
		}
	}
	for _, op := range ops {
		if _, indexed := t.indexes[op.ci]; indexed {
			t.reindex(op.ci)
		}
	}
	return len(positions), nil
}

func (e *Engine) delete(s *Delete) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.table(s.Table)
	if err != nil {
		return 0, err
	}
	var buf [stackRows]int
	positions, err := t.matching(s.Where, buf[:0])
	if err != nil {
		return 0, err
	}
	if len(positions) == 0 {
		return 0, nil
	}
	// Close the gaps: move the cells of each run of kept rows between two
	// deleted positions down over the rows deleted before it.
	w, n := len(t.columns), t.nrows()
	kept := positions[0] * w
	for i, pos := range positions {
		end := n
		if i+1 < len(positions) {
			end = positions[i+1]
		}
		kept += copy(t.cells[kept:], t.cells[(pos+1)*w:end*w])
	}
	clear(t.cells[kept:]) // release references past the new length
	t.cells = t.cells[:kept]
	// Positions shifted, so every index is rebuilt.
	for ci := range t.indexes {
		t.reindex(ci)
	}
	return len(positions), nil
}

func (e *Engine) query(s *Select, out *sink) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, err := e.table(s.Table)
	if err != nil {
		return err
	}
	var buf [stackRows]int
	positions, err := t.matching(s.Where, buf[:0])
	if err != nil {
		return err
	}
	return projectInto(s, t, positions, out)
}

const stackRows = 64 // matched positions held on the stack; a point or range read matches fewer

// matching appends to matched the positions of the rows that satisfy where,
// ascending. It is the one row-selection path: SELECT, UPDATE and DELETE all
// find their rows here. Caller holds at least the read lock.
func (t *table) matching(where Expr, matched []int) ([]int, error) {
	pos, via := t.candidates(where)
	for n := t.nrows(); pos >= 0 && pos < n; {
		ok, err := evalBool(where, t, t.row(pos))
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
	if via, v := indexableEq(where, t); via != nil {
		if c, held := via.lookup(v); held {
			return int(c.first), via
		}
		return -1, via
	}
	return 0, nil
}

// indexableEq recognizes `col = literal` (either side) over an indexed
// column and returns that index and the literal coerced to the column's
// type, or a nil index.
func indexableEq(where Expr, t *table) (ix *index, v Value) {
	cmp, isCmp := where.(*Cmp)
	if !isCmp || cmp.Op != OpEq {
		return nil, nil
	}
	colExpr, litExpr := cmp.L, cmp.R
	if _, isCol := colExpr.(*ColRef); !isCol {
		colExpr, litExpr = cmp.R, cmp.L
	}
	col, isCol := colExpr.(*ColRef)
	lit, isLit := litExpr.(*Literal)
	if !isCol || !isLit {
		return nil, nil
	}
	ci, exists := t.colIdx[strings.ToLower(col.Name)]
	if ix = t.indexes[ci]; !exists || ix == nil {
		return nil, nil
	}
	cv, err := coerce(lit.Val, t.columns[ci].Type)
	if err != nil {
		return nil, nil
	}
	return ix, cv
}

// project collects what projectInto hands its sink into a ResultSet. The
// engine's reference model (engine_model_test.go) projects through it.
func project(s *Select, t *table, matched []int) (*ResultSet, error) {
	out := sink{collect: true}
	if err := projectInto(s, t, matched, &out); err != nil {
		return nil, err
	}
	return out.rs, nil
}

// maxStackWidth is the widest result whose column names, column positions
// and row cells live on the stack; a wider one spills to the heap.
const maxStackWidth = 16

// projectInto applies ORDER BY, aggregates, column projection, and LIMIT to
// the matched row positions, which it may reorder, and hands the result to out
// in one walk of the rows. Every column is resolved before out sees anything.
func projectInto(s *Select, t *table, matched []int, out *sink) error {
	if s.OrderBy != "" {
		ci, err := t.column(s.OrderBy)
		if err != nil {
			return err
		}
		slices.SortStableFunc(matched, func(a, b int) int {
			c := compare(t.row(a)[ci], t.row(b)[ci])
			if s.Desc {
				return -c
			}
			return c
		})
	}

	if isAggregate(s.Items) {
		return aggregate(s, t, matched, out)
	}

	// Resolve the projection once.
	var nameBuf [maxStackWidth]string
	var indexBuf [maxStackWidth]int
	names, indices := nameBuf[:0], indexBuf[:0]
	for _, item := range s.Items {
		if item.Star {
			for i, c := range t.columns {
				names = append(names, c.Name)
				indices = append(indices, i)
			}
			continue
		}
		ci, err := t.column(item.Column)
		if err != nil {
			return err
		}
		name := item.Column
		if item.Alias != "" {
			name = item.Alias
		}
		names = append(names, name)
		indices = append(indices, ci)
	}

	limit := s.Limit
	if limit < 0 || limit > len(matched) {
		limit = len(matched)
	}
	out.columns(names, limit)
	var cellBuf [maxStackWidth]Value
	cells := cellBuf[:0]
	for _, pos := range matched[:limit] {
		cells = cells[:0]
		row := t.row(pos)
		for _, ci := range indices {
			cells = append(cells, row[ci])
		}
		out.row(cells)
	}
	return nil
}

func isAggregate(items []SelectItem) bool {
	for _, it := range items {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

// aggregate folds the matched rows into the one row of s's aggregates and
// hands it to out once every aggregate has succeeded.
func aggregate(s *Select, t *table, matched []int, out *sink) error {
	var nameBuf [maxStackWidth]string
	var cellBuf [maxStackWidth]Value
	names, cells := nameBuf[:0], cellBuf[:0]
	for _, item := range s.Items {
		if item.Agg == AggNone {
			return errors.New("sqldb: mixing aggregates and plain columns is not supported")
		}
		name := item.Alias
		if name == "" {
			name = aggName(item.Agg)
		}
		names = append(names, name)

		if item.Agg == AggCount && item.Star {
			cells = append(cells, int64(len(matched)))
			continue
		}
		ci, err := t.column(item.Column)
		if err != nil {
			return err
		}
		v, err := foldAgg(item.Agg, t, matched, ci)
		if err != nil {
			return err
		}
		cells = append(cells, v)
	}
	out.columns(names, 1)
	out.row(cells)
	return nil
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
			v := t.row(pos)[ci]
			if v != nil {
				n++
			}
		}
		return n, nil
	case AggSum, AggAvg:
		sum := 0.0
		n := 0
		for _, pos := range matched {
			v := t.row(pos)[ci]
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
			v := t.row(pos)[ci]
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
