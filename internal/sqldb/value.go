// Package sqldb is an in-memory SQL database engine with a TCP wire
// protocol, standing in for the MySQL backend in the paper's request
// clustering testbed (a 42,000-record table queried by the backend web
// server's script). It implements enough SQL for the experiments and
// examples: CREATE TABLE / CREATE INDEX, INSERT, SELECT with WHERE
// (comparisons, AND/OR/NOT, BETWEEN, IN, LIKE), ORDER BY, LIMIT, the COUNT /
// SUM / AVG / MIN / MAX aggregates, UPDATE, and DELETE.
//
// The wire protocol deliberately includes a multi-round-trip connection
// handshake: the per-access connection establishment and tear-down cost is
// exactly what the paper's API-based access model pays on every request and
// what broker-held persistent connections amortize away.
package sqldb

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ColType is a column's declared type.
type ColType int

// Column types. The engine is permissive about literals but stores values
// coerced to the column's declared type.
const (
	TypeInt ColType = iota + 1
	TypeFloat
	TypeText
)

// String names the column type using SQL spelling.
func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	default:
		return fmt.Sprintf("TYPE(%d)", int(t))
	}
}

// Value is a single cell: int64, float64, string, or nil (SQL NULL).
type Value interface{}

// coerce converts v to the column type, returning an error for impossible
// conversions. A value of the column's type comes back as is, not re-boxed.
// NaN is no number an INT or FLOAT column holds: it equals nothing, so no
// index would find it again.
func coerce(v Value, t ColType) (Value, error) {
	if v == nil {
		return nil, nil
	}
	if f, ok := v.(float64); ok && math.IsNaN(f) && t != TypeText {
		return nil, fmt.Errorf("sqldb: cannot coerce NaN to %v", t)
	}
	switch t {
	case TypeInt:
		switch x := v.(type) {
		case int64:
			return v, nil
		case float64:
			return int64(x), nil
		case string:
			n, err := strconv.ParseInt(x, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sqldb: cannot coerce %q to INT", x)
			}
			return n, nil
		}
	case TypeFloat:
		switch x := v.(type) {
		case int64:
			return float64(x), nil
		case float64:
			return v, nil
		case string:
			f, err := strconv.ParseFloat(x, 64)
			if err != nil || math.IsNaN(f) {
				return nil, fmt.Errorf("sqldb: cannot coerce %q to FLOAT", x)
			}
			return f, nil
		}
	case TypeText:
		switch x := v.(type) {
		case int64:
			return strconv.FormatInt(x, 10), nil
		case float64:
			return strconv.FormatFloat(x, 'g', -1, 64), nil
		case string:
			return v, nil
		}
	}
	return nil, fmt.Errorf("sqldb: unsupported value %T for %v", v, t)
}

// compare orders two values: -1, 0, or 1. NULL sorts before everything.
// Two ints compare exactly; any other two numbers compare as floats, as
// cmp.Compare does: -0 equals 0, and a NaN (only a literal can be one) sorts
// before every other number and equals only NaN. Strings compare
// lexicographically. Mixed string/number comparisons compare the string
// forms, matching the engine's permissive coercion.
func compare(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	if ai, ok := a.(int64); ok {
		if bi, ok := b.(int64); ok {
			return cmp.Compare(ai, bi)
		}
	}
	af, aIsNum := toFloat(a)
	bf, bIsNum := toFloat(b)
	if aIsNum && bIsNum {
		return cmp.Compare(af, bf)
	}
	return strings.Compare(formatValue(a), formatValue(b))
}

func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// formatValue renders a value the way result sets and error messages print
// it.
func formatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}

// appendValue appends formatValue's text of v to dst, without allocating for
// a number.
func appendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	default:
		return append(dst, formatValue(v)...)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune)
// wildcards, case-sensitive.
func likeMatch(s, pattern string) bool {
	return likeRunes([]rune(s), []rune(pattern))
}

func likeRunes(s, p []rune) bool {
	// Iterative two-pointer matcher with backtracking on the last %.
	var (
		si, pi         int
		starPi, starSi = -1, 0
	)
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starPi = pi
			starSi = si
			pi++
		case starPi >= 0:
			starSi++
			si = starSi
			pi = starPi + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
