package ldapdir

import (
	"fmt"
	"strings"
)

// Filter matches directory entries, mirroring the LDAP string filter
// language: (attr=value) with * wildcards, (attr=*) presence tests, and
// (&...), (|...), (!...) combinators.
type Filter struct {
	op    byte // '=' (value), '*' (presence), '&', '|' or '!'
	attr  string
	value string
	subs  []*Filter // the combinator's operands; '!' has one
}

// Match reports whether e satisfies the filter.
func (f *Filter) Match(e *Entry) bool {
	switch f.op {
	case '&':
		for _, s := range f.subs {
			if !s.Match(e) {
				return false
			}
		}
		return true
	case '|':
		for _, s := range f.subs {
			if s.Match(e) {
				return true
			}
		}
		return false
	case '!':
		return !f.subs[0].Match(e)
	case '*':
		return len(e.Attrs[strings.ToLower(f.attr)]) > 0
	}
	for _, v := range e.Attrs[strings.ToLower(f.attr)] {
		if wildcardMatch(v, f.value) {
			return true
		}
	}
	return false
}

// String renders the filter in LDAP syntax.
func (f *Filter) String() string {
	switch f.op {
	case '=':
		return "(" + f.attr + "=" + f.value + ")"
	case '*':
		return "(" + f.attr + "=*)"
	}
	s := "(" + string(f.op)
	for _, sub := range f.subs {
		s += sub.String()
	}
	return s + ")"
}

// wildcardMatch matches value against a pattern with * wildcards,
// case-insensitively (LDAP attribute values are usually compared
// caseIgnoreMatch).
func wildcardMatch(value, pattern string) bool {
	v := strings.ToLower(value)
	p := strings.ToLower(pattern)
	if !strings.Contains(p, "*") {
		return v == p
	}
	parts := strings.Split(p, "*")
	// Anchor the first and last fragments, float the middle ones.
	if !strings.HasPrefix(v, parts[0]) {
		return false
	}
	v = v[len(parts[0]):]
	last := parts[len(parts)-1]
	if !strings.HasSuffix(v, last) {
		return false
	}
	v = v[:len(v)-len(last)]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		idx := strings.Index(v, mid)
		if idx < 0 {
			return false
		}
		v = v[idx+len(mid):]
	}
	return true
}

// ParseFilter parses an LDAP-style filter string.
func ParseFilter(s string) (*Filter, error) {
	p := &filterParser{s: strings.TrimSpace(s)}
	f, err := p.parse()
	if err != nil {
		return nil, err
	}
	if p.i != len(p.s) {
		return nil, fmt.Errorf("%w: trailing input at %d", ErrBadFilter, p.i)
	}
	return f, nil
}

type filterParser struct {
	s string
	i int
}

func (p *filterParser) parse() (*Filter, error) {
	if p.i >= len(p.s) || p.s[p.i] != '(' {
		return nil, fmt.Errorf("%w: expected '(' at %d", ErrBadFilter, p.i)
	}
	p.i++
	if p.i >= len(p.s) {
		return nil, fmt.Errorf("%w: truncated", ErrBadFilter)
	}
	switch p.s[p.i] {
	case '&', '|':
		op := p.s[p.i]
		p.i++
		var subs []*Filter
		for p.i < len(p.s) && p.s[p.i] == '(' {
			sub, err := p.parse()
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if len(subs) == 0 {
			return nil, fmt.Errorf("%w: empty combinator", ErrBadFilter)
		}
		return &Filter{op: op, subs: subs}, nil
	case '!':
		p.i++
		sub, err := p.parse()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &Filter{op: '!', subs: []*Filter{sub}}, nil
	default:
		end := strings.IndexByte(p.s[p.i:], ')')
		if end < 0 {
			return nil, fmt.Errorf("%w: missing ')'", ErrBadFilter)
		}
		body := p.s[p.i : p.i+end]
		p.i += end + 1
		attr, val, ok := strings.Cut(body, "=")
		if !ok || attr == "" {
			return nil, fmt.Errorf("%w: %q", ErrBadFilter, body)
		}
		attr = strings.TrimSpace(attr)
		val = strings.TrimSpace(val)
		if val == "*" {
			return &Filter{op: '*', attr: attr}, nil
		}
		if val == "" {
			return nil, fmt.Errorf("%w: empty value in %q", ErrBadFilter, body)
		}
		return &Filter{op: '=', attr: attr, value: val}, nil
	}
}

func (p *filterParser) expect(c byte) error {
	if p.i >= len(p.s) || p.s[p.i] != c {
		return fmt.Errorf("%w: expected %q at %d", ErrBadFilter, string(c), p.i)
	}
	p.i++
	return nil
}
