package sqldb

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// RecordsTable is the name of the fixture table used by the request
// clustering experiment (the paper's backend "looked up a database table
// that contained 42,000 records").
const RecordsTable = "records"

// PaperRecordCount is the fixture size from the paper.
const PaperRecordCount = 42000

// LoadRecords creates the experiment fixture table with n rows:
//
//	records(id INT PRIMARY KEY, category INT, score FLOAT, name TEXT)
//
// Categories span [0, 100); scores span [0, 1000). Row content is generated
// from a fixed seed so every run sees the same data.
func LoadRecords(e *Engine, n int) error {
	if n <= 0 {
		return fmt.Errorf("sqldb: record count must be positive, got %d", n)
	}
	if _, err := e.Exec("CREATE TABLE records (id INT PRIMARY KEY, category INT, score FLOAT, name TEXT)"); err != nil {
		return fmt.Errorf("sqldb: create fixture: %w", err)
	}
	if _, err := e.Exec("CREATE INDEX records_category ON records (category)"); err != nil {
		return fmt.Errorf("sqldb: index fixture: %w", err)
	}
	rng := rand.New(rand.NewSource(20030519)) // ICDCS 2003
	// Insert via the engine API in batches; going through the parser for
	// 42,000 rows would dominate test startup for no benefit.
	const batch = 2000
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		ins := &Insert{Table: RecordsTable}
		for i := start; i < end; i++ {
			ins.Rows = append(ins.Rows, []Value{
				int64(i),
				int64(rng.Intn(100)),
				float64(rng.Intn(1_000_000)) / 1000.0,
				fmt.Sprintf("record-%06d", i),
			})
		}
		if _, err := e.ExecStmt(ins); err != nil {
			return fmt.Errorf("sqldb: load fixture rows %d..%d: %w", start, end, err)
		}
	}
	return nil
}

// RandomRangeQuery returns a SELECT over the fixture approximating the
// paper's "random query command": a category lookup plus a score range scan.
// The rng drives the randomness so workloads are reproducible.
func RandomRangeQuery(rng *rand.Rand) string {
	cat := rng.Intn(100)
	lo := rng.Intn(900)
	width := 10 + rng.Intn(50)
	return fmt.Sprintf("SELECT id, name, score FROM records WHERE category = %d AND score BETWEEN %d AND %d",
		cat, lo, lo+width)
}

// MaxRepeat bounds the repeat directive, which any HTTP client can send; the
// largest degree of clustering in use is Figure 7's 40.
const MaxRepeat = 64

// RepeatQuery wraps a query with a repetition directive understood by the
// backend CGI script: the paper's broker "rewrite[s] the query command to
// notify the script to repeat the same workload multiple times to achieve
// clustering". The directive survives as a prefix comment.
func RepeatQuery(sql string, times int) string {
	if times <= 1 {
		return sql
	}
	return "/*repeat=" + strconv.Itoa(times) + "*/ " + sql
}

// ParseRepeat extracts the repetition directive from a query produced by
// RepeatQuery, returning the bare SQL and the repeat count. A directive is
// decimal digits only, 1 to MaxRepeat; anything else is not a directive, and
// the query comes back whole with count 1 (the engine rejects it).
func ParseRepeat(sql string) (string, int) {
	rest, ok := strings.CutPrefix(sql, "/*repeat=")
	if !ok {
		return sql, 1
	}
	digits, query, ok := strings.Cut(rest, "*/")
	if !ok || strings.Trim(digits, "0123456789") != "" {
		return sql, 1
	}
	times, err := strconv.Atoi(digits)
	if err != nil || times < 1 || times > MaxRepeat {
		return sql, 1
	}
	return strings.TrimSpace(query), times
}
