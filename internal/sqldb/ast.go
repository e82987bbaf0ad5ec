package sqldb

// Statement is a parsed SQL statement: one of *CreateTable, *CreateIndex,
// *DropTable, *Insert, *Select, *Update, or *Delete.
type Statement interface {
	stmt()
}

// ColumnDef declares one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       ColType
	PrimaryKey bool
}

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTable) stmt() {}

// CreateIndex is CREATE INDEX name ON table (column).
type CreateIndex struct {
	Name   string
	Table  string
	Column string
}

func (*CreateIndex) stmt() {}

// DropTable is DROP TABLE name.
type DropTable struct {
	Name string
}

func (*DropTable) stmt() {}

// Insert is INSERT INTO table [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string // empty means schema order
	Rows    [][]Value
}

func (*Insert) stmt() {}

// AggFunc identifies an aggregate function in a SELECT list.
type AggFunc int

// Aggregate functions.
const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// SelectItem is one entry of a SELECT list: either a plain column, `*`
// (Star), or an aggregate over a column (or `*` for COUNT).
type SelectItem struct {
	Star   bool
	Column string
	Agg    AggFunc
	Alias  string
}

// Select is SELECT items FROM table [WHERE expr] [ORDER BY col [ASC|DESC]]
// [LIMIT n].
type Select struct {
	Items   []SelectItem
	Table   string
	Where   Expr // nil means all rows
	OrderBy string
	Desc    bool
	Limit   int // -1 means no limit
}

func (*Select) stmt() {}

// Update is UPDATE table SET col = val, ... [WHERE expr].
type Update struct {
	Table string
	Set   map[string]*Literal
	Where Expr
}

func (*Update) stmt() {}

// Delete is DELETE FROM table [WHERE expr].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt() {}

// Expr is a boolean or value expression evaluated against a row.
type Expr interface {
	expr()
}

// ColRef references a column by name.
type ColRef struct{ Name string }

func (*ColRef) expr() {}

// Literal is a constant value, held unboxed as the lexer read it: the parser
// makes one of a number, a string or NULL, and a statement of the same shape
// rebinds it in place.
type Literal struct{ val cell }

func (*Literal) expr() {}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (*Cmp) expr() {}

// LogicalOp joins boolean expressions.
type LogicalOp int

// Logical operators.
const (
	OpAnd LogicalOp = iota + 1
	OpOr
)

// Logical is L AND/OR R.
type Logical struct {
	Op   LogicalOp
	L, R Expr
}

func (*Logical) expr() {}

// Not negates a boolean expression.
type Not struct{ E Expr }

func (*Not) expr() {}

// Between is `col BETWEEN lo AND hi` (inclusive).
type Between struct {
	E      Expr
	Lo, Hi Expr
}

func (*Between) expr() {}

// In is `col IN (v1, v2, ...)`.
type In struct {
	E    Expr
	List []Expr
}

func (*In) expr() {}

// Like is `col LIKE 'pattern'`.
type Like struct {
	E       Expr
	Pattern string
}

func (*Like) expr() {}
