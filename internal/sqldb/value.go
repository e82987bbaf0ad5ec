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

// A cell is one value held unboxed: kind is the type of the field that holds
// it (TypeInt n, TypeFloat f, TypeText s), and 0 is NULL. The engine stores,
// compares and renders cells; only Exec's ResultSet boxes them into Values.
type cell struct {
	kind ColType
	n    int64
	f    float64
	s    string
}

// cellOf unboxes v. A value of any other Go type becomes the text it prints
// as.
func cellOf(v Value) cell {
	switch x := v.(type) {
	case nil:
		return cell{}
	case int64:
		return cell{kind: TypeInt, n: x}
	case float64:
		return cell{kind: TypeFloat, f: x}
	case string:
		return cell{kind: TypeText, s: x}
	default:
		return cell{kind: TypeText, s: formatValue(v)}
	}
}

// value boxes c.
func (c cell) value() Value {
	switch c.kind {
	case TypeInt:
		return c.n
	case TypeFloat:
		return c.f
	case TypeText:
		return c.s
	default:
		return nil
	}
}

// appendText appends c's text, formatValue's text of its value, to dst.
func appendText(dst []byte, c cell) []byte {
	switch c.kind {
	case TypeInt:
		return strconv.AppendInt(dst, c.n, 10)
	case TypeFloat:
		return strconv.AppendFloat(dst, c.f, 'g', -1, 64)
	case TypeText:
		return append(dst, c.s...)
	default:
		return append(dst, "NULL"...)
	}
}

// text returns c's text.
func (c cell) text() string {
	if c.kind == TypeText {
		return c.s
	}
	return string(appendText(nil, c))
}

// coerce converts v to the column type, returning an error for impossible
// conversions.
func coerce(v Value, t ColType) (cell, error) {
	switch v.(type) {
	case nil, int64, float64, string:
		return cast(cellOf(v), t)
	}
	return cell{}, fmt.Errorf("sqldb: unsupported value %T for %v", v, t)
}

// cast converts c to type t. NaN is no number an INT or FLOAT column holds:
// it equals nothing, so no index would find it again. Nor is a float outside
// int64's range, infinities included, an INT.
func cast(c cell, t ColType) (cell, error) {
	if c.kind == 0 {
		return c, nil
	}
	if c.kind == TypeFloat && math.IsNaN(c.f) && t != TypeText {
		return cell{}, fmt.Errorf("sqldb: cannot coerce NaN to %v", t)
	}
	if c.kind == t {
		return c, nil
	}
	switch t {
	case TypeInt:
		if c.kind == TypeFloat {
			if c.f < -(1<<63) || c.f >= 1<<63 {
				return cell{}, fmt.Errorf("sqldb: %v is out of range for INT", c.f)
			}
			return cell{kind: TypeInt, n: int64(c.f)}, nil
		}
		n, err := strconv.ParseInt(c.s, 10, 64)
		if err != nil {
			return cell{}, fmt.Errorf("sqldb: cannot coerce %q to INT", c.s)
		}
		return cell{kind: TypeInt, n: n}, nil
	case TypeFloat:
		if c.kind == TypeInt {
			return cell{kind: TypeFloat, f: float64(c.n)}, nil
		}
		f, err := strconv.ParseFloat(c.s, 64)
		if err != nil || math.IsNaN(f) {
			return cell{}, fmt.Errorf("sqldb: cannot coerce %q to FLOAT", c.s)
		}
		return cell{kind: TypeFloat, f: f}, nil
	case TypeText:
		return cell{kind: TypeText, s: c.text()}, nil
	}
	return cell{}, fmt.Errorf("sqldb: cannot coerce %s to %v", c.text(), t)
}

// compare orders two cells: -1, 0, or 1. NULL sorts before everything.
// Numbers compare exactly, an INT against a FLOAT included: -0 equals 0,
// and a NaN (only a literal can be one) sorts before every other number and
// equals only NaN, as cmp.Compare has it. Strings compare
// lexicographically. Mixed string/number comparisons compare the text forms,
// matching the engine's permissive coercion.
func compare(a, b cell) int {
	switch {
	case a.kind == 0 && b.kind == 0:
		return 0
	case a.kind == 0:
		return -1
	case b.kind == 0:
		return 1
	case a.kind == TypeInt && b.kind == TypeInt:
		return cmp.Compare(a.n, b.n)
	case a.kind == TypeFloat && b.kind == TypeFloat:
		return cmp.Compare(a.f, b.f)
	case a.kind == TypeInt && b.kind == TypeFloat:
		return compareIntFloat(a.n, b.f)
	case a.kind == TypeFloat && b.kind == TypeInt:
		return -compareIntFloat(b.n, a.f)
	case a.kind == TypeText && b.kind == TypeText:
		return strings.Compare(a.s, b.s)
	}
	var buf [32]byte // a number's text fits
	if a.kind == TypeText {
		return strings.Compare(a.s, string(appendText(buf[:0], b)))
	}
	return strings.Compare(string(appendText(buf[:0], a)), b.s)
}

// compareIntFloat orders n against f exactly, with no rounding of n to a
// float64: 2^53+1 is above 2^53.
func compareIntFloat(n int64, f float64) int {
	switch {
	case -1<<53 <= n && n <= 1<<53: // float64(n) is exact
		return cmp.Compare(float64(n), f)
	case math.IsNaN(f) || f < -(1<<63):
		return 1
	case f >= 1<<63:
		return -1
	}
	whole := math.Trunc(f) // in int64's range: converts exactly
	if c := cmp.Compare(n, int64(whole)); c != 0 {
		return c
	}
	return cmp.Compare(whole, f) // n == whole: a fraction decides
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
