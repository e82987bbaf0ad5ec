package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
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

// token is one lexical unit. For numbers, val holds the text and num the
// value; isInt marks an INT literal. lit is a number's or string's value:
// int64 (exact), float64 or string.
type token struct {
	kind  tokenKind
	val   string // uppercased for keywords
	num   float64
	isInt bool
	lit   Value
	pos   int
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

// keyword returns the keyword word spells in any letter case.
func keyword(word string) (string, bool) {
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

// lex tokenizes a SQL statement.
func lex(input string) ([]token, error) {
	return appendTokens(make([]token, 0, len(input)/4+2), input) // a token and its space take about four bytes
}

// appendTokens appends the tokens of input to toks, the last one tokEOF.
func appendTokens(toks []token, input string) ([]token, error) {
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'' || c == '"':
			quote := byte(c)
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(input) {
					return nil, fmt.Errorf("sqldb: unterminated string at %d", i)
				}
				if input[j] == quote {
					// '' escapes a quote inside the string.
					if j+1 < len(input) && input[j+1] == quote {
						sb.WriteByte(quote)
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(input[j])
				j++
			}
			s := sb.String()
			toks = append(toks, token{kind: tokString, val: s, lit: s, pos: i})
			i = j + 1
		case unicode.IsDigit(c) || (c == '-' && i+1 < len(input) && unicode.IsDigit(rune(input[i+1])) && startsValue(toks)):
			j := i + 1
			isInt := true
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				if input[j] == '.' {
					isInt = false
				}
				j++
			}
			t := token{kind: tokNumber, val: input[i:j], isInt: isInt, pos: i}
			if isInt {
				// The text is an optional '-' and digits, so only range can fail.
				n, err := strconv.ParseInt(t.val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sqldb: integer out of range at %d", i)
				}
				t.num, t.lit = float64(n), n
			} else {
				f, err := strconv.ParseFloat(t.val, 64)
				if err != nil {
					return nil, fmt.Errorf("sqldb: bad number %q at %d", t.val, i)
				}
				t.num, t.lit = f, f
			}
			toks = append(toks, t)
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			word := input[i:j]
			if kw, ok := keyword(word); ok {
				toks = append(toks, token{kind: tokKeyword, val: kw, pos: i})
			} else {
				toks = append(toks, token{kind: tokIdent, val: word, pos: i})
			}
			i = j
		case c == '<' || c == '>' || c == '!':
			sym := input[i : i+1]
			if i+1 < len(input) && (input[i+1] == '=' || (c == '<' && input[i+1] == '>')) {
				sym = input[i : i+2]
				i++
			}
			if sym == "!" {
				return nil, fmt.Errorf("sqldb: stray '!' at %d", i)
			}
			toks = append(toks, token{kind: tokSymbol, val: sym, pos: i})
			i++
		case strings.ContainsRune("(),*=;", c):
			if c == ';' {
				i++ // statement terminator, ignored
				continue
			}
			toks = append(toks, token{kind: tokSymbol, val: input[i : i+1], pos: i})
			i++
		default:
			return nil, fmt.Errorf("sqldb: unexpected character %q at %d", c, i)
		}
	}
	return append(toks, token{kind: tokEOF, pos: len(input)}), nil
}

// appendShape appends the shape key of toks to key: each token's text and a
// space, a literal's text replaced by a marker of its kind (?i, ?f, ?s). No
// token's text holds a space or starts with '?', and a keyword, an identifier
// and a symbol never spell alike, so two statements share a key exactly when
// they differ only in the values of literals of the same kinds. NULL is a
// keyword, not a literal.
func appendShape(key []byte, toks []token) []byte {
	for _, t := range toks {
		switch {
		case t.kind == tokString:
			key = append(key, "?s "...)
		case t.kind == tokNumber && t.isInt:
			key = append(key, "?i "...)
		case t.kind == tokNumber:
			key = append(key, "?f "...)
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
