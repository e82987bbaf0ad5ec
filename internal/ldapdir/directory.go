// Package ldapdir is a lightweight LDAP-style directory service, one of the
// heterogeneous backend servers the paper's web applications access (the
// "LDAP API" in Figure 1). It provides a hierarchical entry tree addressed
// by distinguished names, an LDAP-flavoured search filter language, and a
// line-oriented TCP protocol with a bind (authentication) round trip.
package ldapdir

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Directory errors.
var (
	ErrNoSuchEntry   = errors.New("ldapdir: no such entry")
	ErrEntryExists   = errors.New("ldapdir: entry already exists")
	ErrNoParent      = errors.New("ldapdir: parent entry does not exist")
	ErrHasChildren   = errors.New("ldapdir: entry has children")
	ErrBadDN         = errors.New("ldapdir: malformed DN")
	ErrBadFilter     = errors.New("ldapdir: malformed filter")
	ErrNotEmptyScope = errors.New("ldapdir: unknown search scope")
)

// DN is a parsed distinguished name, most-specific RDN first, e.g.
// ["cn=alice", "ou=users", "dc=example"].
type DN []string

// ParseDN splits a textual DN. Components are trimmed and lowercased on the
// attribute side; values keep their case.
func ParseDN(s string) (DN, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("%w: empty", ErrBadDN)
	}
	parts := strings.Split(s, ",")
	dn := make(DN, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		attr, val, ok := strings.Cut(p, "=")
		if !ok || attr == "" || val == "" {
			return nil, fmt.Errorf("%w: component %q", ErrBadDN, p)
		}
		dn = append(dn, strings.ToLower(strings.TrimSpace(attr))+"="+strings.TrimSpace(val))
	}
	return dn, nil
}

// String renders the DN in textual form.
func (d DN) String() string { return strings.Join(d, ",") }

// Parent returns the DN with the most specific RDN removed; nil for a
// one-component DN.
func (d DN) Parent() DN {
	if len(d) <= 1 {
		return nil
	}
	return d[1:]
}

// key returns a canonical (case-insensitive) map key.
func (d DN) key() string { return strings.ToLower(d.String()) }

// IsDescendantOf reports whether d is strictly under base.
func (d DN) IsDescendantOf(base DN) bool {
	if len(d) <= len(base) {
		return false
	}
	offset := len(d) - len(base)
	for i, rdn := range base {
		if !strings.EqualFold(d[offset+i], rdn) {
			return false
		}
	}
	return true
}

// Equal reports whether two DNs name the same entry.
func (d DN) Equal(o DN) bool {
	if len(d) != len(o) {
		return false
	}
	for i := range d {
		if !strings.EqualFold(d[i], o[i]) {
			return false
		}
	}
	return true
}

// Entry is one directory node: a DN plus multi-valued attributes. Attribute
// names are stored lowercase.
type Entry struct {
	DN    DN
	Attrs map[string][]string
}

// clone deep-copies the entry so callers cannot mutate directory state.
func (e *Entry) clone() *Entry {
	c := &Entry{DN: append(DN(nil), e.DN...), Attrs: make(map[string][]string, len(e.Attrs))}
	for k, vs := range e.Attrs {
		c.Attrs[k] = append([]string(nil), vs...)
	}
	return c
}

// Scope selects how far Search descends.
type Scope int

// Search scopes, mirroring LDAP.
const (
	// ScopeBase matches only the base entry itself.
	ScopeBase Scope = iota + 1
	// ScopeOne matches immediate children of the base.
	ScopeOne
	// ScopeSub matches the base and all descendants.
	ScopeSub
)

// ParseScope parses "base", "one", or "sub".
func ParseScope(s string) (Scope, error) {
	switch strings.ToLower(s) {
	case "base":
		return ScopeBase, nil
	case "one":
		return ScopeOne, nil
	case "sub":
		return ScopeSub, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrNotEmptyScope, s)
	}
}

// Directory is the in-memory entry store. It is safe for concurrent use.
type Directory struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{entries: make(map[string]*Entry)}
}

// Len returns the number of entries.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Add inserts an entry. Every entry except roots (single-RDN DNs) requires
// an existing parent. Attribute names are normalized to lowercase.
func (d *Directory) Add(dn DN, attrs map[string][]string) error {
	if len(dn) == 0 {
		return ErrBadDN
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	key := dn.key()
	if _, ok := d.entries[key]; ok {
		return fmt.Errorf("%w: %s", ErrEntryExists, dn)
	}
	if parent := dn.Parent(); parent != nil {
		if _, ok := d.entries[parent.key()]; !ok {
			return fmt.Errorf("%w: %s", ErrNoParent, parent)
		}
	}
	e := &Entry{DN: dn, Attrs: make(map[string][]string, len(attrs)+1)}
	for k, vs := range attrs {
		e.Attrs[strings.ToLower(k)] = append([]string(nil), vs...)
	}
	// The RDN attribute is implicitly present.
	if attr, val, ok := strings.Cut(dn[0], "="); ok {
		name := strings.ToLower(attr)
		if !slices.Contains(e.Attrs[name], val) {
			e.Attrs[name] = append(e.Attrs[name], val)
		}
	}
	d.entries[key] = e
	return nil
}

// Delete removes a leaf entry.
func (d *Directory) Delete(dn DN) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := dn.key()
	if _, ok := d.entries[key]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
	}
	for _, e := range d.entries {
		if e.DN.IsDescendantOf(dn) {
			return fmt.Errorf("%w: %s", ErrHasChildren, dn)
		}
	}
	delete(d.entries, key)
	return nil
}

// Modify replaces the named attributes on an existing entry (nil value
// slices delete the attribute).
func (d *Directory) Modify(dn DN, attrs map[string][]string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[dn.key()]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
	}
	for k, vs := range attrs {
		name := strings.ToLower(k)
		if len(vs) == 0 {
			delete(e.Attrs, name)
			continue
		}
		e.Attrs[name] = append([]string(nil), vs...)
	}
	return nil
}

// Lookup returns a copy of the entry at dn.
func (d *Directory) Lookup(dn DN) (*Entry, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[dn.key()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchEntry, dn)
	}
	return e.clone(), nil
}

// Search returns copies of entries under base (per scope) matching the
// filter, sorted by DN for deterministic output.
func (d *Directory) Search(base DN, scope Scope, f *Filter) ([]*Entry, error) {
	if f == nil {
		f = &Filter{op: '*', attr: "objectclass"}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if _, ok := d.entries[base.key()]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchEntry, base)
	}
	var out []*Entry
	for _, e := range d.entries {
		var inScope bool
		switch scope {
		case ScopeBase:
			inScope = e.DN.Equal(base)
		case ScopeOne:
			inScope = e.DN.IsDescendantOf(base) && len(e.DN) == len(base)+1
		case ScopeSub:
			inScope = e.DN.Equal(base) || e.DN.IsDescendantOf(base)
		default:
			return nil, ErrNotEmptyScope
		}
		if inScope && f.Match(e) {
			out = append(out, e.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DN.key() < out[j].DN.key() })
	return out, nil
}
