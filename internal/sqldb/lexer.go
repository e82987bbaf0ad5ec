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

// token is one lexical unit. For numbers, val holds the canonical text and
// num the parsed value; isInt distinguishes INT literals from FLOAT.
type token struct {
	kind  tokenKind
	val   string // uppercased for keywords
	num   float64
	isInt bool
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
	toks := make([]token, 0, len(input)/4+2) // a token and its space take about four bytes
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
			toks = append(toks, token{kind: tokString, val: sb.String(), pos: i})
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
			text := input[i:j]
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqldb: bad number %q at %d", text, i)
			}
			toks = append(toks, token{kind: tokNumber, val: text, num: f, isInt: isInt, pos: i})
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
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
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
