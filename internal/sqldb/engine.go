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
// that Exec returns, boxing each cell into a Value; the server's appends the
// result's frameResult body to body, allocating nothing but its growth. The
// engine calls a sink only once the statement can no longer fail.
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
func (k *sink) row(cells []cell) {
	if k.collect {
		w := len(cells)
		row := k.cells[:w:w]
		for i, c := range cells {
			row[i] = c.value()
		}
		k.cells = k.cells[w:]
		k.rs.Rows = append(k.rs.Rows, row)
		return
	}
	for _, c := range cells {
		k.body = appendCell(k.body, c)
	}
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

// table is one in-memory table, stored by column: cols[ci] holds column
// ci's value of every row, in row order, so a row is a position and costs its
// typed values and nothing more. The primary key and every CREATE INDEX
// column have a hash index for equality lookups.
//
// A hash index is correct whenever the engine's lock is free: it chains every
// row's position under that row's column value. Each mutating statement
// restores that before it unlocks, so a reader never finds an index to
// repair.
type table struct {
	name    string
	columns []ColumnDef
	colIdx  map[string]int
	pkCol   int      // -1 when no primary key
	cols    []column // by column index
	n       int      // rows
}

// nrows returns the number of rows.
func (t *table) nrows() int { return t.n }

// column is one column's values, a typed vector: ints for an INT column,
// floats for a FLOAT one, strs for a TEXT one, and the other two nil. A NULL
// row holds the zero value and a set bit in nulls, which stays nil until the
// column holds a NULL and then reaches the word of its last NULL row, so a
// column without NULLs pays nothing for them.
type column struct {
	typ    ColType
	ints   []int64
	floats []float64
	strs   []string
	nulls  []uint64 // bit pos%64 of word pos/64 is set when row pos is NULL
	index  *index   // nil when the column has none
}

// null reports whether row pos is NULL.
func (c *column) null(pos int) bool {
	w := pos / 64
	return w < len(c.nulls) && c.nulls[w]&(1<<(pos%64)) != 0
}

// cell returns row pos's value.
func (c *column) cell(pos int) cell {
	if c.null(pos) {
		return cell{}
	}
	switch c.typ {
	case TypeInt:
		return cell{kind: TypeInt, n: c.ints[pos]}
	case TypeFloat:
		return cell{kind: TypeFloat, f: c.floats[pos]}
	default:
		return cell{kind: TypeText, s: c.strs[pos]}
	}
}

// set stores v, NULL or a value of the column's type, at row pos.
func (c *column) set(pos int, v cell) {
	switch c.typ {
	case TypeInt:
		c.ints[pos] = v.n
	case TypeFloat:
		c.floats[pos] = v.f
	default:
		c.strs[pos] = v.s
	}
	c.setNull(pos, v.kind == 0)
}

// setNull sets or clears row pos's NULL bit.
func (c *column) setNull(pos int, null bool) {
	w, bit := pos/64, uint64(1)<<(pos%64)
	switch {
	case null:
		if w >= len(c.nulls) {
			c.nulls = append(c.nulls, make([]uint64, w+1-len(c.nulls))...)
		}
		c.nulls[w] |= bit
	case w < len(c.nulls):
		c.nulls[w] &^= bit
	}
}

// grow lengthens the column by k rows, for set to fill.
func (c *column) grow(k int) {
	switch c.typ {
	case TypeInt:
		c.ints = slices.Grow(c.ints, k)[:len(c.ints)+k]
	case TypeFloat:
		c.floats = slices.Grow(c.floats, k)[:len(c.floats)+k]
	default:
		c.strs = slices.Grow(c.strs, k)[:len(c.strs)+k]
	}
}

// remove deletes the rows at positions, ascending and not empty; the rows
// after each move up, their NULL bits with them.
func (c *column) remove(positions []int) {
	switch c.typ {
	case TypeInt:
		c.ints = closeGaps(c.ints, positions)
	case TypeFloat:
		c.floats = closeGaps(c.floats, positions)
	default:
		c.strs = closeGaps(c.strs, positions)
	}
	if c.nulls == nil {
		return
	}
	old := c.nulls
	c.nulls = nil
	for pos, kept := 0, 0; pos < len(old)*64; pos++ {
		if len(positions) > 0 && positions[0] == pos {
			positions = positions[1:]
			continue
		}
		if old[pos/64]&(1<<(pos%64)) != 0 {
			c.setNull(kept, true)
		}
		kept++
	}
}

// closeGaps deletes the elements at positions, ascending and not empty, from
// s: each run of kept elements between two deleted ones moves down over the
// elements deleted before it.
func closeGaps[T any](s []T, positions []int) []T {
	kept := positions[0]
	for i, pos := range positions {
		end := len(s)
		if i+1 < len(positions) {
			end = positions[i+1]
		}
		kept += copy(s[kept:], s[pos+1:end])
	}
	clear(s[kept:]) // release strings past the new length
	return s[:kept]
}

// index is a hash index on one column: for each value, the chain of the row
// positions holding it, ascending. The chains are threaded through one array,
// so a value costs a map entry and a row four bytes; a slice per value would
// cost the 42,000-key primary index a slice header and an allocation per row.
//
// A value keys its chain as itself, in the map of its column's type, and NULL
// has a chain of its own, so no key is boxed or formatted. Two values of the
// column's type are one key when compare calls them equal: -0 and 0 are one
// FLOAT key, as == has them, NULL and 'NULL' two, and NaN, which no key would
// ever find again, is refused by coerce.
type index struct {
	ints    map[int64]chain   // an INT column's values
	floats  map[float64]chain // a FLOAT column's
	strs    map[string]chain  // a TEXT column's
	null    chain             // the NULL rows, when hasNull
	hasNull bool
	next    []int32 // next[pos] is the position after pos in its chain, or -1
}

type chain struct{ first, last int32 }

// newIndex returns an empty index for a column of type typ, sized for
// distinct values and rows rows.
func newIndex(typ ColType, distinct, rows int) *index {
	ix := &index{next: make([]int32, 0, rows)}
	switch typ {
	case TypeInt:
		ix.ints = make(map[int64]chain, distinct)
	case TypeFloat:
		ix.floats = make(map[float64]chain, distinct)
	default:
		ix.strs = make(map[string]chain, distinct)
	}
	return ix
}

// lookup returns the chain of the rows holding v, NULL or a value of the
// column's type.
func (ix *index) lookup(v cell) (c chain, held bool) {
	switch v.kind {
	case TypeInt:
		c, held = ix.ints[v.n]
	case TypeFloat:
		c, held = ix.floats[v.f]
	case TypeText:
		c, held = ix.strs[v.s]
	default:
		c, held = ix.null, ix.hasNull
	}
	return c, held
}

// add puts the next row, the one at position len(ix.next), under its value v.
func (ix *index) add(v cell) {
	pos := int32(len(ix.next))
	ix.next = append(ix.next, -1)
	c, ok := ix.lookup(v)
	if ok {
		ix.next[c.last] = pos
	} else {
		c.first = pos
	}
	c.last = pos
	switch v.kind {
	case TypeInt:
		ix.ints[v.n] = c
	case TypeFloat:
		ix.floats[v.f] = c
	case TypeText:
		ix.strs[v.s] = c
	default:
		ix.null, ix.hasNull = c, true
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
	if err := exec(e, sql, &out); err != nil {
		return nil, err
	}
	return out.rs, nil
}

// exec executes one SQL statement into out: Exec's work, shared with the
// server, which passes the query frame's bytes and renders the result
// straight into its reply frame. A statement of a cached shape is lexed,
// keyed and bound from sql itself: its tokens hold offsets and unboxed
// literals, so with no text literal it allocates nothing here. Only a new
// shape makes a string of sql, the one its parse keeps; nothing else exec
// keeps refers to sql, which the server overwrites with its next frame.
func exec[T string | []byte](e *Engine, sql T, out *sink) error {
	var tokBuf [32]token
	var keyBuf [256]byte // a longer statement spills to the heap
	toks, err := appendTokens(tokBuf[:0], sql)
	if err != nil {
		return err
	}
	key := appendShape(keyBuf[:0], sql, toks)
	e.shapeMu.RLock()
	free := e.shapes[string(key)] // nil for a new shape: never ready
	e.shapeMu.RUnlock()
	var in *instance
	select {
	case in = <-free:
	default:
		stmt, binds, err := parse(string(sql), slices.Clone(toks)) // the parser would take tokBuf to the heap
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
		cols:    make([]column, len(s.Columns)),
	}
	for i, c := range s.Columns {
		t.cols[i].typ = c.Type
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
	if t.cols[ci].index == nil {
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
	col := &t.cols[ci]
	distinct := 0
	if old := col.index; old != nil {
		distinct = len(old.ints) + len(old.floats) + len(old.strs)
	}
	ix := newIndex(col.typ, distinct, t.n)
	for pos := range t.n {
		ix.add(col.cell(pos))
	}
	col.index = ix
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
	staged := make([]cell, len(s.Rows)*w) // the new rows, appended to the table at once
	var pending map[cell]bool             // primary keys of this statement's own rows
	if t.pkCol != -1 {
		pending = make(map[cell]bool, len(s.Rows))
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
			if _, held := t.cols[t.pkCol].index.lookup(pk); held || pending[pk] {
				return 0, fmt.Errorf("%w: %s", ErrDuplicateKey, pk.text())
			}
			pending[pk] = true
		}
	}
	t.appendRows(staged)
	return len(s.Rows), nil
}

// appendRows appends staged's rows, len(t.cols) cells a row and each cell
// NULL or of its column's type, to the columns and their indexes.
func (t *table) appendRows(staged []cell) {
	w := len(t.cols)
	k := len(staged) / w
	for ci := range t.cols {
		col := &t.cols[ci]
		col.grow(k)
		for i := range k {
			v := staged[i*w+ci]
			col.set(t.n+i, v)
			if col.index != nil {
				col.index.add(v)
			}
		}
	}
	t.n += k
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
		val cell
	}
	var names [8]string
	var opBuf [8]setOp
	cols, ops := names[:0], opBuf[:0]
	for col := range s.Set {
		cols = append(cols, col)
	}
	slices.Sort(cols) // not map order: the same error, and winner of two spellings, every run
	for _, col := range cols {
		ci, err := t.column(col)
		if err != nil {
			return 0, err
		}
		cv, err := cast(s.Set[col].val, t.columns[ci].Type)
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
		holder, held := t.cols[t.pkCol].index.lookup(op.val)
		if len(positions) > 1 || (held && int(holder.first) != positions[0]) {
			return 0, fmt.Errorf("%w: %s", ErrDuplicateKey, op.val.text())
		}
	}
	for _, op := range ops {
		for _, pos := range positions {
			t.cols[op.ci].set(pos, op.val)
		}
	}
	for _, op := range ops {
		if t.cols[op.ci].index != nil {
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
	for ci := range t.cols {
		t.cols[ci].remove(positions)
	}
	t.n -= len(positions)
	// Positions shifted, so every index is rebuilt.
	for ci := range t.cols {
		if t.cols[ci].index != nil {
			t.reindex(ci)
		}
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
	var nodes [maxStackPred]pnode
	var args [maxStackPred]operand
	p, err := t.compile(where, predicate{nodes: nodes[:0], args: args[:0]})
	if err != nil {
		return nil, err
	}
	pos, via := p.candidates(0)
	for pos >= 0 && pos < t.n {
		if p.holds(0, pos) {
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

// maxStackPred is the number of nodes, and of operands, a WHERE clause
// compiles into on the stack; a larger clause spills to the heap.
const maxStackPred = 8

// A predicate is a WHERE clause compiled against a table for one statement:
// a node per boolean expression, node 0 the whole clause, and an operand per
// value, each column resolved and each literal unboxed once. Evaluating it
// against a row reads the row's typed cells, looks no name up, boxes nothing
// and cannot fail.
type predicate struct {
	nodes []pnode
	args  []operand
}

type pnode struct {
	kind    pkind
	op      CmpOp  // pCmp
	a, b    int32  // pAnd, pOr: the child nodes; pNot: the child, in a; otherwise the operands args[a:b]
	pattern string // pLike
}

type pkind uint8

const (
	pTrue pkind = iota // no WHERE clause
	pAnd
	pOr
	pNot
	pCmp // pCmp and the kinds after it take operands
	pBetween
	pIn
	pLike
)

// An operand is a column or, when col is nil, a literal.
type operand struct {
	col *column
	lit cell
}

// at returns the operand's value in row pos.
func (o *operand) at(pos int) cell {
	if o.col != nil {
		return o.col.cell(pos)
	}
	return o.lit
}

// compile appends the nodes and operands of e, which may be nil, to p; e's
// node is the first it appends.
func (t *table) compile(e Expr, p predicate) (predicate, error) {
	at := len(p.nodes)
	p.nodes = append(p.nodes, pnode{})
	var n pnode
	var err error
	switch x := e.(type) {
	case nil:
		n.kind = pTrue
	case *Logical:
		switch x.Op {
		case OpAnd:
			n.kind = pAnd
		case OpOr:
			n.kind = pOr
		default:
			return p, fmt.Errorf("sqldb: unknown logical op %d", x.Op)
		}
		n.a = int32(len(p.nodes))
		if p, err = t.compile(x.L, p); err != nil {
			return p, err
		}
		n.b = int32(len(p.nodes))
		p, err = t.compile(x.R, p)
	case *Not:
		n.kind, n.a = pNot, int32(len(p.nodes))
		p, err = t.compile(x.E, p)
	case *Cmp:
		if x.Op < OpEq || x.Op > OpGe {
			return p, fmt.Errorf("sqldb: unknown comparison op %d", x.Op)
		}
		n.kind, n.op, n.a = pCmp, x.Op, int32(len(p.args))
		p, err = t.operands(p, x.L, x.R)
	case *Between:
		n.kind, n.a = pBetween, int32(len(p.args))
		p, err = t.operands(p, x.E, x.Lo, x.Hi)
	case *In:
		n.kind, n.a = pIn, int32(len(p.args))
		if p, err = t.operands(p, x.E); err == nil {
			p, err = t.operands(p, x.List...)
		}
	case *Like:
		n.kind, n.a, n.pattern = pLike, int32(len(p.args)), x.Pattern
		p, err = t.operands(p, x.E)
	default:
		return p, fmt.Errorf("sqldb: expression %T is not boolean", e)
	}
	if err != nil {
		return p, err
	}
	if n.kind >= pCmp { // the kinds that take operands: theirs end here
		n.b = int32(len(p.args))
	}
	p.nodes[at] = n
	return p, nil
}

// operands appends es, each a column reference or a literal, to p's
// operands.
func (t *table) operands(p predicate, es ...Expr) (predicate, error) {
	for _, e := range es {
		switch x := e.(type) {
		case *ColRef:
			ci, err := t.column(x.Name)
			if err != nil {
				return p, err
			}
			p.args = append(p.args, operand{col: &t.cols[ci]})
		case *Literal:
			p.args = append(p.args, operand{lit: x.val})
		default:
			return p, fmt.Errorf("sqldb: expression %T is not a value", e)
		}
	}
	return p, nil
}

// holds evaluates node i against row pos.
func (p *predicate) holds(i int32, pos int) bool {
	n := &p.nodes[i]
	switch n.kind {
	case pAnd:
		return p.holds(n.a, pos) && p.holds(n.b, pos)
	case pOr:
		return p.holds(n.a, pos) || p.holds(n.b, pos)
	case pNot:
		return !p.holds(n.a, pos)
	case pCmp:
		l, r := p.args[n.a].at(pos), p.args[n.a+1].at(pos)
		// SQL three-valued logic collapsed to two: NULL comparisons are
		// false except = NULL / != NULL which test for null-ness.
		if l.kind == 0 || r.kind == 0 {
			switch n.op {
			case OpEq:
				return l.kind == 0 && r.kind == 0
			case OpNe:
				return (l.kind == 0) != (r.kind == 0)
			default:
				return false
			}
		}
		c := compare(l, r)
		switch n.op {
		case OpEq:
			return c == 0
		case OpNe:
			return c != 0
		case OpLt:
			return c < 0
		case OpLe:
			return c <= 0
		case OpGt:
			return c > 0
		default: // OpGe: compile admits no other
			return c >= 0
		}
	case pBetween:
		v, lo, hi := p.args[n.a].at(pos), p.args[n.a+1].at(pos), p.args[n.a+2].at(pos)
		if v.kind == 0 || lo.kind == 0 || hi.kind == 0 {
			return false
		}
		return compare(v, lo) >= 0 && compare(v, hi) <= 0
	case pIn:
		v := p.args[n.a].at(pos)
		for k := n.a + 1; k < n.b; k++ {
			lv := p.args[k].at(pos)
			if v.kind == 0 && lv.kind == 0 {
				return true
			}
			if v.kind != 0 && lv.kind != 0 && compare(v, lv) == 0 {
				return true
			}
		}
		return false
	case pLike:
		v := p.args[n.a].at(pos)
		return v.kind != 0 && likeMatch(v.text(), n.pattern)
	}
	return true // pTrue
}

// candidates narrows node i to the rows worth checking: the first of them
// and the index whose chain leads to the rest. Walking the top-level ANDs
// left to right, it picks the chain of the first `col = literal` conjunct
// over an indexed column (first is -1 when no row holds the literal); with
// no such conjunct via is nil, and every row from 0 on must be checked.
// Candidates are always re-checked against the full WHERE clause, so the
// choice only affects performance.
func (p *predicate) candidates(i int32) (first int, via *index) {
	n := &p.nodes[i]
	switch {
	case n.kind == pAnd:
		if first, via = p.candidates(n.a); via != nil {
			return first, via
		}
		return p.candidates(n.b)
	case n.kind == pCmp && n.op == OpEq:
		col, lit := p.args[n.a], p.args[n.a+1]
		if col.col == nil {
			col, lit = lit, col
		}
		if col.col == nil || lit.col != nil || col.col.index == nil {
			break
		}
		v, err := cast(lit.lit, col.col.typ)
		if err != nil {
			break
		}
		if c, held := col.col.index.lookup(v); held {
			return int(c.first), col.col.index
		}
		return -1, col.col.index
	}
	return 0, nil
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
		col := &t.cols[ci]
		slices.SortStableFunc(matched, func(a, b int) int {
			c := compare(col.cell(a), col.cell(b))
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
	var colBuf [maxStackWidth]*column
	names, cols := nameBuf[:0], colBuf[:0]
	for _, item := range s.Items {
		if item.Star {
			for i, c := range t.columns {
				names = append(names, c.Name)
				cols = append(cols, &t.cols[i])
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
		cols = append(cols, &t.cols[ci])
	}

	limit := s.Limit
	if limit < 0 || limit > len(matched) {
		limit = len(matched)
	}
	out.columns(names, limit)
	var cellBuf [maxStackWidth]cell
	cells := cellBuf[:0]
	for _, pos := range matched[:limit] {
		cells = cells[:0]
		for _, col := range cols {
			cells = append(cells, col.cell(pos))
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
	var cellBuf [maxStackWidth]cell
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
			cells = append(cells, cell{kind: TypeInt, n: int64(len(matched))})
			continue
		}
		ci, err := t.column(item.Column)
		if err != nil {
			return err
		}
		v, err := foldAgg(item.Agg, &t.cols[ci], matched)
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

func foldAgg(a AggFunc, col *column, matched []int) (cell, error) {
	switch a {
	case AggCount:
		n := int64(0)
		for _, pos := range matched {
			if !col.null(pos) {
				n++
			}
		}
		return cell{kind: TypeInt, n: n}, nil
	case AggSum, AggAvg:
		sum := 0.0
		n := 0
		for _, pos := range matched {
			switch v := col.cell(pos); v.kind {
			case 0:
				continue
			case TypeInt:
				sum += float64(v.n)
			case TypeFloat:
				sum += v.f
			default:
				return cell{}, fmt.Errorf("sqldb: %s over non-numeric column", aggName(a))
			}
			n++
		}
		if a == AggSum {
			return cell{kind: TypeFloat, f: sum}, nil
		}
		if n == 0 {
			return cell{}, nil
		}
		return cell{kind: TypeFloat, f: sum / float64(n)}, nil
	case AggMin, AggMax:
		var best cell
		for _, pos := range matched {
			v := col.cell(pos)
			if v.kind == 0 {
				continue
			}
			if best.kind == 0 {
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
		return cell{}, fmt.Errorf("sqldb: unknown aggregate %d", a)
	}
}
