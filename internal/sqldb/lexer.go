package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , * = < > <= >= != <>
)

// token is one lexical unit, the text input[pos:end]. A keyword's or a
// symbol's val is its spelling, a keyword's upper-cased; an identifier's is
// empty, its text read from the input by offset, so lexing bytes makes no
// string of it. A number's or string's lit is its value, read once here: an
// exact INT or a FLOAT cell for a number, a TEXT cell with the quotes taken
// out for a string.
type token struct {
	kind     tokenKind
	val      string
	lit      cell
	pos, end int
}

// keywords recognized by the parser, each mapped to itself so a token can
// carry the table's spelling. Everything else alphanumeric is an identifier.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range strings.Fields(`SELECT FROM WHERE INSERT INTO VALUES CREATE
		TABLE INDEX ON UPDATE SET DELETE AND OR NOT BETWEEN IN LIKE ORDER BY ASC
		DESC LIMIT NULL INT FLOAT TEXT COUNT SUM AVG MIN MAX AS DROP PRIMARY KEY`) {
		m[k] = k
	}
	return m
}()

// symbols maps each symbol's text to the same spelling, which a token keeps.
var symbols = map[string]string{
	"(": "(", ")": ")", ",": ",", "*": "*", "=": "=", "<": "<", ">": ">",
	"<=": "<=", ">=": ">=", "!=": "!=", "<>": "<>",
}

// keyword returns the keyword word spells in any letter case.
func keyword[T string | []byte](word T) (string, bool) {
	var upper [len("BETWEEN")]byte // the longest keywords, with PRIMARY
	if len(word) > len(upper) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		upper[i] = word[i] &^ ('a' - 'A') // upper-cases a letter; no other byte of a word becomes one
	}
	kw, ok := keywords[string(upper[:len(word)])]
	return kw, ok
}

// isSpace, isDigit and isWordByte classify the bytes outside quotes, all of
// them ASCII: a byte from 0x80 on is refused there, so no UTF-8 character is
// ever split into a word and a stray byte.
func isSpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isWordByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || isDigit(c)
}

// lex tokenizes a SQL statement.
func lex(input string) ([]token, error) {
	return appendTokens(make([]token, 0, len(input)/4+2), input) // a token and its space take about four bytes
}

// appendTokens appends the tokens of input to toks, the last one tokEOF. No
// token refers to input but by offset, and a string literal's value is a
// copy of []byte input, so nothing it returns keeps a byte slice's memory.
func appendTokens[T string | []byte](toks []token, input T) ([]token, error) {
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case isSpace(c):
			i++
		case c == '\'' || c == '"':
			j, escaped := i+1, false
			for {
				if j >= len(input) {
					return nil, fmt.Errorf("sqldb: unterminated string at %d", i)
				}
				if input[j] == c {
					// '' escapes a quote inside the string.
					if j+1 < len(input) && input[j+1] == c {
						escaped = true
						j += 2
						continue
					}
					break
				}
				j++
			}
			s := string(input[i+1 : j])
			if escaped {
				q := string(c)
				s = strings.ReplaceAll(s, q+q, q)
			}
			toks = append(toks, token{kind: tokString, lit: cell{kind: TypeText, s: s}, pos: i, end: j + 1})
			i = j + 1
		case isDigit(c) || (c == '-' && i+1 < len(input) && isDigit(input[i+1]) && startsValue(toks)):
			j := i + 1
			isInt := true
			for j < len(input) && (isDigit(input[j]) || input[j] == '.') {
				if input[j] == '.' {
					isInt = false
				}
				j++
			}
			t := token{kind: tokNumber, pos: i, end: j}
			text := input[i:j]
			if isInt {
				n, ok := parseInt(text)
				if !ok {
					return nil, fmt.Errorf("sqldb: integer out of range at %d", i)
				}
				t.lit = cell{kind: TypeInt, n: n}
			} else {
				f, err := strconv.ParseFloat(string(text), 64) // does not keep its argument, so a short []byte converts on the stack
				if err != nil {
					return nil, fmt.Errorf("sqldb: bad number %q at %d", text, i)
				}
				t.lit = cell{kind: TypeFloat, f: f}
			}
			toks = append(toks, t)
			i = j
		case isWordByte(c):
			j := i + 1
			for j < len(input) && isWordByte(input[j]) {
				j++
			}
			if kw, ok := keyword(input[i:j]); ok {
				toks = append(toks, token{kind: tokKeyword, val: kw, pos: i, end: j})
			} else {
				toks = append(toks, token{kind: tokIdent, pos: i, end: j})
			}
			i = j
		case c >= 0x80:
			return nil, fmt.Errorf("sqldb: byte 0x%x outside a quoted string at %d", c, i)
		case c == ';':
			i++ // statement terminator, ignored
		default:
			j := i + 1
			if j < len(input) && (c == '<' || c == '>' || c == '!') && (input[j] == '=' || c == '<' && input[j] == '>') {
				j++
			}
			sym, ok := symbols[string(input[i:j])]
			if !ok {
				return nil, fmt.Errorf("sqldb: unexpected character %q at %d", c, i)
			}
			toks = append(toks, token{kind: tokSymbol, val: sym, pos: i, end: j})
			i = j
		}
	}
	return append(toks, token{kind: tokEOF, pos: len(input), end: len(input)}), nil
}

// parseInt reads text, an optional '-' and decimal digits, as an int64,
// reporting false when the value is out of range. strconv.ParseInt would do,
// but its argument escapes, so a []byte's text would be copied to the heap.
func parseInt[T string | []byte](text T) (int64, bool) {
	neg := text[0] == '-'
	digits := text
	if neg {
		digits = text[1:]
	}
	var u uint64 // the magnitude: -2^63's fits
	for k := 0; k < len(digits); k++ {
		d := uint64(digits[k] - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u), true // int64(1<<63) is the minimum, which negates to itself
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}

// appendShape appends the shape key of toks, the tokens of input, to key:
// each token's text and a space, a literal's text replaced by a marker of its
// kind (?i, ?f, ?s). No token's text holds a space or starts with '?', and a
// keyword, an identifier and a symbol never spell alike, so two statements
// share a key exactly when they differ only in the values of literals of the
// same kinds. NULL is a keyword, not a literal.
func appendShape[T string | []byte](key []byte, input T, toks []token) []byte {
	for _, t := range toks {
		switch {
		case t.kind == tokString:
			key = append(key, "?s "...)
		case t.kind == tokNumber && t.lit.kind == TypeInt:
			key = append(key, "?i "...)
		case t.kind == tokNumber:
			key = append(key, "?f "...)
		case t.kind == tokIdent:
			key = append(append(key, input[t.pos:t.end]...), ' ')
		default:
			key = append(append(key, t.val...), ' ')
		}
	}
	return key
}

// startsValue reports whether a '-' at the current position begins a
// negative literal (rather than being subtraction, which the grammar does
// not support anyway). True when the previous token cannot end a value.
func startsValue(toks []token) bool {
	if len(toks) == 0 {
		return true
	}
	last := toks[len(toks)-1]
	switch last.kind {
	case tokNumber, tokString, tokIdent:
		return false
	case tokSymbol:
		return last.val != ")"
	default:
		return true
	}
}
