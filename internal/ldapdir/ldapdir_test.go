package ldapdir

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestParseDN(t *testing.T) {
	dn, err := ParseDN("CN=Alice, ou=users, dc=example")
	if err != nil {
		t.Fatal(err)
	}
	if dn.String() != "cn=Alice,ou=users,dc=example" {
		t.Fatalf("dn = %s", dn)
	}
	if dn.Parent().String() != "ou=users,dc=example" {
		t.Fatalf("parent = %s", dn.Parent())
	}
	if DN([]string{"dc=example"}).Parent() != nil {
		t.Fatal("root parent should be nil")
	}
	for _, bad := range []string{"", "nodnhere", "cn=", "=val", "cn=a,,dc=b"} {
		if _, err := ParseDN(bad); !errors.Is(err, ErrBadDN) {
			t.Errorf("ParseDN(%q) err = %v, want ErrBadDN", bad, err)
		}
	}
}

func TestDNRelations(t *testing.T) {
	base, _ := ParseDN("ou=users,dc=example")
	child, _ := ParseDN("cn=alice,ou=users,dc=example")
	grand, _ := ParseDN("cn=x,cn=alice,ou=users,dc=example")
	other, _ := ParseDN("cn=bob,ou=groups,dc=example")
	if !child.IsDescendantOf(base) || !grand.IsDescendantOf(base) {
		t.Fatal("descendants not detected")
	}
	if base.IsDescendantOf(base) {
		t.Fatal("self counted as descendant")
	}
	if other.IsDescendantOf(base) {
		t.Fatal("non-descendant matched")
	}
	caseVariant, _ := ParseDN("cn=ALICE,ou=users,dc=example")
	if !child.Equal(caseVariant) {
		t.Fatal("case-insensitive Equal failed")
	}
}

// newTestDir builds a small org tree.
func newTestDir(t *testing.T) *Directory {
	t.Helper()
	d := NewDirectory()
	add := func(dn string, attrs map[string][]string) {
		t.Helper()
		parsed, err := ParseDN(dn)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Add(parsed, attrs); err != nil {
			t.Fatalf("Add(%s): %v", dn, err)
		}
	}
	add("dc=example", map[string][]string{"objectclass": {"domain"}})
	add("ou=users,dc=example", map[string][]string{"objectclass": {"organizationalUnit"}})
	add("ou=groups,dc=example", map[string][]string{"objectclass": {"organizationalUnit"}})
	add("cn=alice,ou=users,dc=example", map[string][]string{
		"objectclass": {"person"}, "mail": {"alice@example.com"}, "title": {"engineer"}})
	add("cn=bob,ou=users,dc=example", map[string][]string{
		"objectclass": {"person"}, "mail": {"bob@example.com"}, "title": {"manager"}})
	add("cn=eng,ou=groups,dc=example", map[string][]string{
		"objectclass": {"group"}, "member": {"alice"}})
	return d
}

func TestAddRequiresParent(t *testing.T) {
	d := NewDirectory()
	dn, _ := ParseDN("cn=orphan,ou=nowhere,dc=example")
	if err := d.Add(dn, nil); !errors.Is(err, ErrNoParent) {
		t.Fatalf("err = %v, want ErrNoParent", err)
	}
}

func TestAddDuplicate(t *testing.T) {
	d := newTestDir(t)
	dn, _ := ParseDN("cn=Alice,ou=users,dc=example") // different case
	if err := d.Add(dn, nil); !errors.Is(err, ErrEntryExists) {
		t.Fatalf("err = %v, want ErrEntryExists", err)
	}
}

func TestRDNImplicitAttribute(t *testing.T) {
	d := newTestDir(t)
	dn, _ := ParseDN("cn=alice,ou=users,dc=example")
	e, err := d.Lookup(dn)
	if err != nil {
		t.Fatal(err)
	}
	if cn := e.Attrs["cn"]; !slices.Equal(cn, []string{"alice"}) {
		t.Fatalf("cn = %q, want alice", cn)
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	d := newTestDir(t)
	dn, _ := ParseDN("cn=alice,ou=users,dc=example")
	e, _ := d.Lookup(dn)
	e.Attrs["mail"][0] = "corrupted"
	e2, _ := d.Lookup(dn)
	if e2.Attrs["mail"][0] != "alice@example.com" {
		t.Fatal("Lookup leaked internal state")
	}
}

func TestDeleteLeafOnly(t *testing.T) {
	d := newTestDir(t)
	users, _ := ParseDN("ou=users,dc=example")
	if err := d.Delete(users); !errors.Is(err, ErrHasChildren) {
		t.Fatalf("err = %v, want ErrHasChildren", err)
	}
	alice, _ := ParseDN("cn=alice,ou=users,dc=example")
	if err := d.Delete(alice); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup(alice); !errors.Is(err, ErrNoSuchEntry) {
		t.Fatalf("lookup after delete err = %v", err)
	}
	if err := d.Delete(alice); !errors.Is(err, ErrNoSuchEntry) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestModify(t *testing.T) {
	d := newTestDir(t)
	dn, _ := ParseDN("cn=alice,ou=users,dc=example")
	err := d.Modify(dn, map[string][]string{"title": {"principal"}, "mail": nil})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := d.Lookup(dn)
	if title := e.Attrs["title"]; !slices.Equal(title, []string{"principal"}) {
		t.Fatalf("title = %q", title)
	}
	if mail, ok := e.Attrs["mail"]; ok {
		t.Fatalf("mail survived deletion: %q", mail)
	}
	missing, _ := ParseDN("cn=nobody,dc=example")
	if err := d.Modify(missing, nil); !errors.Is(err, ErrNoSuchEntry) {
		t.Fatalf("modify missing err = %v", err)
	}
}

func TestSearchScopes(t *testing.T) {
	d := newTestDir(t)
	base, _ := ParseDN("dc=example")
	users, _ := ParseDN("ou=users,dc=example")

	tests := []struct {
		base  DN
		scope Scope
		want  int
	}{
		{base, ScopeBase, 1},
		{base, ScopeOne, 2},
		{base, ScopeSub, 6},
		{users, ScopeOne, 2},
		{users, ScopeSub, 3},
	}
	for _, tt := range tests {
		got, err := d.Search(tt.base, tt.scope, nil)
		if err != nil {
			t.Fatalf("Search(%s, %d): %v", tt.base, tt.scope, err)
		}
		if len(got) != tt.want {
			t.Errorf("Search(%s, %d) = %d entries, want %d", tt.base, tt.scope, len(got), tt.want)
		}
	}
	missing, _ := ParseDN("dc=nowhere")
	if _, err := d.Search(missing, ScopeSub, nil); !errors.Is(err, ErrNoSuchEntry) {
		t.Fatalf("missing base err = %v", err)
	}
}

func TestSearchDeterministicOrder(t *testing.T) {
	d := newTestDir(t)
	base, _ := ParseDN("ou=users,dc=example")
	a, _ := d.Search(base, ScopeSub, nil)
	b, _ := d.Search(base, ScopeSub, nil)
	for i := range a {
		if !a[i].DN.Equal(b[i].DN) {
			t.Fatal("search order not deterministic")
		}
	}
}

func TestFilters(t *testing.T) {
	d := newTestDir(t)
	base, _ := ParseDN("dc=example")
	tests := []struct {
		filter string
		want   int
	}{
		{"(objectclass=person)", 2},
		{"(objectclass=PERSON)", 2}, // case-insensitive values
		{"(mail=*)", 2},
		{"(mail=alice*)", 1},
		{"(mail=*example.com)", 2},
		{"(mail=*@*)", 2},
		{"(&(objectclass=person)(title=manager))", 1},
		{"(|(title=manager)(title=engineer))", 2},
		{"(!(objectclass=person))", 4},
		{"(&(objectclass=person)(!(title=manager)))", 1},
		{"(cn=alice)", 1},
		{"(cn=zed)", 0},
	}
	for _, tt := range tests {
		f, err := ParseFilter(tt.filter)
		if err != nil {
			t.Fatalf("ParseFilter(%q): %v", tt.filter, err)
		}
		got, err := d.Search(base, ScopeSub, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tt.want {
			t.Errorf("filter %s matched %d, want %d", tt.filter, len(got), tt.want)
		}
	}
}

func TestParseFilterErrors(t *testing.T) {
	for _, bad := range []string{
		"", "cn=x", "(cn=x", "(cn=x))", "(&)", "(|)", "(!)", "(=x)", "(cn=)", "(!(cn=a)(cn=b))",
	} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) succeeded", bad)
		}
	}
}

func TestFilterString(t *testing.T) {
	f, err := ParseFilter("(&(objectclass=person)(!(cn=bob))(|(a=1)(b=*)))")
	if err != nil {
		t.Fatal(err)
	}
	want := "(&(objectclass=person)(!(cn=bob))(|(a=1)(b=*)))"
	if got := f.String(); got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
}

// Property: ParseFilter never panics and round-trips its own rendering.
func TestFilterRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		flt, err := ParseFilter(s)
		if err != nil {
			return true
		}
		again, err := ParseFilter(flt.String())
		return err == nil && again.String() == flt.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWildcardMatch(t *testing.T) {
	tests := []struct {
		v, p string
		want bool
	}{
		{"alice", "alice", true},
		{"Alice", "alice", true},
		{"alice", "a*", true},
		{"alice", "*e", true},
		{"alice", "a*e", true},
		{"alice", "a*i*e", true},
		{"alice", "a*x*e", false},
		{"alice", "*", true},
		{"", "*", true},
		{"", "", true},
		{"x", "", false},
	}
	for _, tt := range tests {
		if got := wildcardMatch(tt.v, tt.p); got != tt.want {
			t.Errorf("wildcardMatch(%q, %q) = %v, want %v", tt.v, tt.p, got, tt.want)
		}
	}
}

func TestParseScope(t *testing.T) {
	for name, want := range map[string]Scope{"base": ScopeBase, "ONE": ScopeOne, "Sub": ScopeSub} {
		got, err := ParseScope(name)
		if err != nil || got != want {
			t.Errorf("ParseScope(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScope("tree"); err == nil {
		t.Fatal("ParseScope(tree) succeeded")
	}
}

// startTestServer builds a directory, serves it, and returns a bound client.
func startTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	d := newTestDir(t)
	srv, err := NewServer(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Connect(srv.Addr().String(), 0, "cn=web", "web")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// do runs one request that must succeed and returns its reply.
func do(t *testing.T, cli *Client, payload string) string {
	t.Helper()
	out, err := cli.Do([]byte(payload))
	if err != nil {
		t.Fatalf("%q: %v", payload, err)
	}
	return string(out)
}

func TestServerBindAndSearch(t *testing.T) {
	_, cli := startTestServer(t)
	out := do(t, cli, "SEARCH dc=example sub (objectclass=person)")
	if n := strings.Count(out, "dn: "); n != 2 {
		t.Fatalf("entries = %d, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "mail: alice@example.com\n") {
		t.Fatalf("attributes missing:\n%s", out)
	}
}

func TestServerRejectsUnboundOperations(t *testing.T) {
	srv, _ := startTestServer(t)
	say, expect := rawLine(t, srv)
	say("SEARCH dc=example sub")
	expect("-ERR")
	say("BIND cn=web wrong")
	expect("-ERR")
	// After a proper bind everything works.
	say("BIND cn=web web")
	expect("+OK")
	say("SEARCH dc=example base")
	expect("*ENTRY")
	if _, err := Connect(srv.Addr().String(), 0, "cn=web", "wrong"); !errors.Is(err, ErrServer) {
		t.Fatalf("bad bind: err = %v, want ErrServer", err)
	}
}

func TestServerAddModifyDelete(t *testing.T) {
	_, cli := startTestServer(t)
	if out := do(t, cli, "ADD cn=carol,ou=users,dc=example objectclass=person|mail=carol@example.com"); out != "ok" {
		t.Fatalf("ADD = %q", out)
	}
	do(t, cli, "MODIFY cn=carol,ou=users,dc=example title=director")
	out := do(t, cli, "SEARCH cn=carol,ou=users,dc=example base")
	if want := "dn: cn=carol,ou=users,dc=example\ncn: carol\nmail: carol@example.com\nobjectclass: person\ntitle: director\n\n"; out != want {
		t.Fatalf("SEARCH = %q, want %q", out, want)
	}
	do(t, cli, "DEL cn=carol,ou=users,dc=example")
	if _, err := cli.Do([]byte("DEL cn=carol,ou=users,dc=example")); !errors.Is(err, ErrServer) {
		t.Fatalf("double delete: err = %v, want ErrServer", err)
	}
}

// TestAttrListReachesServerAsWritten: an ADD's attribute list goes to the
// server as the payload wrote it, several values for one name in their order.
func TestAttrListReachesServerAsWritten(t *testing.T) {
	_, cli := startTestServer(t)
	do(t, cli, "ADD cn=dora,ou=users,dc=example mail=2@x.com|b=|objectclass=person|mail=1@x.com")
	out := do(t, cli, "SEARCH cn=dora,ou=users,dc=example base")
	if want := "dn: cn=dora,ou=users,dc=example\ncn: dora\nmail: 2@x.com\nmail: 1@x.com\nobjectclass: person\n\n"; out != want {
		t.Fatalf("SEARCH = %q, want %q", out, want)
	}
}

// TestSearchReplyIsDeterministic: an entry's attributes come back in name
// order, so identical searches give identical replies.
func TestSearchReplyIsDeterministic(t *testing.T) {
	_, cli := startTestServer(t)
	do(t, cli, "ADD cn=erin,ou=users,dc=example objectclass=person|mail=e@x.com|title=cto|sn=e|uid=erin")
	replies := make(map[string]bool)
	for i := 0; i < 50; i++ {
		replies[do(t, cli, "SEARCH cn=erin,ou=users,dc=example base")] = true
	}
	if len(replies) != 1 {
		t.Fatalf("50 identical searches gave %d distinct replies: %v", len(replies), replies)
	}
}

func TestServerErrorsKeepSessionAlive(t *testing.T) {
	_, cli := startTestServer(t)
	if _, err := cli.Do([]byte("SEARCH dc=missing sub")); !errors.Is(err, ErrServer) {
		t.Fatalf("search on missing base: err = %v, want ErrServer", err)
	}
	if out := do(t, cli, "SEARCH dc=example base"); !strings.HasPrefix(out, "dn: dc=example\n") {
		t.Fatalf("session out of step after an error: %q", out)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv, _ := startTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := Connect(srv.Addr().String(), 0, "cn=web", "web")
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			defer cli.Close()
			for j := 0; j < 10; j++ {
				if _, err := cli.Do([]byte("SEARCH dc=example sub (objectclass=person)")); err != nil {
					t.Errorf("client %d search %d: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestDirectoryConcurrentMutations(t *testing.T) {
	d := newTestDir(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				dn, _ := ParseDN(fmt.Sprintf("cn=user%d-%d,ou=users,dc=example", w, i))
				if err := d.Add(dn, map[string][]string{"objectclass": {"person"}}); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	base, _ := ParseDN("ou=users,dc=example")
	got, err := d.Search(base, ScopeOne, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 202 { // alice, bob + 200 new
		t.Fatalf("entries = %d, want 202", len(got))
	}
}

func BenchmarkSearchSubtreeFiltered(b *testing.B) {
	d := NewDirectory()
	root, _ := ParseDN("dc=example")
	d.Add(root, map[string][]string{"objectclass": {"domain"}})
	ou, _ := ParseDN("ou=users,dc=example")
	d.Add(ou, nil)
	for i := 0; i < 1000; i++ {
		dn, _ := ParseDN(fmt.Sprintf("cn=user%d,ou=users,dc=example", i))
		d.Add(dn, map[string][]string{
			"objectclass": {"person"},
			"mail":        {fmt.Sprintf("user%d@example.com", i)},
		})
	}
	f, _ := ParseFilter("(&(objectclass=person)(mail=user5*))")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Search(root, ScopeSub, f); err != nil {
			b.Fatal(err)
		}
	}
}
