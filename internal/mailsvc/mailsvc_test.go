package mailsvc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestStoreDeliverAndList(t *testing.T) {
	s := NewStore()
	n, err := s.Deliver("a@x.com", []string{"b@x.com", "c@x.com"}, "hello")
	if err != nil || n != 2 {
		t.Fatalf("Deliver = %d, %v", n, err)
	}
	msgs, err := s.List("b@x.com")
	if err != nil || len(msgs) != 1 {
		t.Fatalf("List = %v, %v", msgs, err)
	}
	if msgs[0].From != "a@x.com" || msgs[0].Body != "hello" || msgs[0].Seq != 1 {
		t.Fatalf("msg = %+v", msgs[0])
	}
	if msgs, err := s.List("c@x.com"); err != nil || len(msgs) != 1 {
		t.Fatalf("List(c) = %v, %v", msgs, err)
	}
}

func TestStoreAddressValidation(t *testing.T) {
	s := NewStore()
	cases := []struct {
		from string
		to   []string
	}{
		{"bad", []string{"b@x.com"}},
		{"a@x.com", []string{"bad"}},
		{"a@x.com", nil},
		{"@x.com", []string{"b@x.com"}},
		{"a@", []string{"b@x.com"}},
		{"a b@x.com", []string{"b@x.com"}},
	}
	for _, c := range cases {
		if _, err := s.Deliver(c.from, c.to, "x"); !errors.Is(err, ErrBadAddress) {
			t.Errorf("Deliver(%q, %v) err = %v, want ErrBadAddress", c.from, c.to, err)
		}
	}
}

func TestStoreCaseInsensitiveMailboxes(t *testing.T) {
	s := NewStore()
	s.Deliver("a@x.com", []string{"Bob@X.com"}, "hi")
	msgs, err := s.List("bob@x.com")
	if err != nil || len(msgs) != 1 {
		t.Fatalf("List = %v, %v", msgs, err)
	}
}

func TestStoreRetr(t *testing.T) {
	s := NewStore()
	s.Deliver("a@x.com", []string{"b@x.com"}, "one")
	s.Deliver("a@x.com", []string{"b@x.com"}, "two")
	m, err := s.Retr("b@x.com", 2)
	if err != nil || m.Body != "two" {
		t.Fatalf("Retr = %+v, %v", m, err)
	}
	if _, err := s.Retr("b@x.com", 3); !errors.Is(err, ErrNoMessage) {
		t.Fatalf("out-of-range err = %v", err)
	}
	if _, err := s.Retr("nobody@x.com", 1); !errors.Is(err, ErrNoMailbox) {
		t.Fatalf("missing mailbox err = %v", err)
	}
	if _, err := s.List("nobody@x.com"); !errors.Is(err, ErrNoMailbox) {
		t.Fatalf("missing mailbox list err = %v", err)
	}
}

func TestStoreListReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Deliver("a@x.com", []string{"b@x.com"}, "original")
	msgs, _ := s.List("b@x.com")
	msgs[0].Body = "mutated"
	again, _ := s.List("b@x.com")
	if again[0].Body != "original" {
		t.Fatal("List leaked internal state")
	}
}

// Property: sequence numbers in a mailbox are always 1..n in order.
func TestSeqNumbersProperty(t *testing.T) {
	f := func(bodies []string) bool {
		if len(bodies) > 50 {
			return true
		}
		s := NewStore()
		for _, b := range bodies {
			if _, err := s.Deliver("a@x.com", []string{"u@x.com"}, b); err != nil {
				return false
			}
		}
		if len(bodies) == 0 {
			return true
		}
		msgs, err := s.List("u@x.com")
		if err != nil || len(msgs) != len(bodies) {
			return false
		}
		for i, m := range msgs {
			if m.Seq != i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func startMail(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Connect(srv.Addr().String(), 0)
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

func TestProtocolSendListRetr(t *testing.T) {
	_, cli := startMail(t)
	body := "line one\nline two\n.leading dot"
	if out := do(t, cli, "SEND from@x.com to@x.com "+body); out != "sent" {
		t.Fatalf("SEND = %q", out)
	}
	if out, want := do(t, cli, "LIST to@x.com"), fmt.Sprintf("1 from@x.com %d\n", len(body)); out != want {
		t.Fatalf("LIST = %q, want %q", out, want)
	}
	if got := do(t, cli, "RETR to@x.com 1"); got != body {
		t.Fatalf("RETR = %q, want %q (dot-stuffing round trip)", got, body)
	}
}

func TestProtocolMultipleRecipients(t *testing.T) {
	_, cli := startMail(t)
	do(t, cli, "SEND a@x.com b@x.com,c@x.com,d@x.com fanout")
	for _, u := range []string{"b@x.com", "c@x.com", "d@x.com"} {
		if out := do(t, cli, "LIST "+u); out != "1 a@x.com 6\n" {
			t.Fatalf("LIST %s = %q", u, out)
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	_, cli := startMail(t)
	for _, payload := range []string{"SEND nodomain b@x.com x", "LIST ghost@x.com", "RETR ghost@x.com 1"} {
		if _, err := cli.Do([]byte(payload)); !errors.Is(err, ErrServer) {
			t.Errorf("%q: err = %v, want ErrServer", payload, err)
		}
	}
	// The session survives all of the above.
	do(t, cli, "SEND ok@x.com b@x.com fine")
}

func TestConcurrentSenders(t *testing.T) {
	srv, err := NewServer(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := Connect(srv.Addr().String(), 0)
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			defer cli.Close()
			for j := 0; j < 10; j++ {
				if _, err := cli.Do([]byte(fmt.Sprintf("SEND s%d@x.com inbox@x.com msg", i))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	cli, err := Connect(srv.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if rows := strings.Count(do(t, cli, "LIST inbox@x.com"), "\n"); rows != 60 {
		t.Fatalf("LIST = %d rows, want 60", rows)
	}
}

func TestValidAddress(t *testing.T) {
	good := []string{"a@b.com", "x.y@z.org", "u@host"}
	bad := []string{"", "a", "@b", "a@", "a b@c", "<a@b>"}
	for _, a := range good {
		if !ValidAddress(a) {
			t.Errorf("ValidAddress(%q) = false", a)
		}
	}
	for _, a := range bad {
		if ValidAddress(a) {
			t.Errorf("ValidAddress(%q) = true", a)
		}
	}
}

func TestNewServerRejectsNilStore(t *testing.T) {
	if _, err := NewServer(nil, "127.0.0.1:0"); err == nil {
		t.Fatal("NewServer(nil) succeeded")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer(NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBodyWithTrailingDotStuffing(t *testing.T) {
	_, cli := startMail(t)
	body := ".\n..\nplain"
	do(t, cli, "SEND a@x.com b@x.com "+body)
	if got := do(t, cli, "RETR b@x.com 1"); got != body {
		t.Fatalf("body = %q, want %q", got, body)
	}
}

func BenchmarkDeliver(b *testing.B) {
	s := NewStore()
	rcpts := []string{"a@x.com", "b@x.com"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Deliver("sender@x.com", rcpts, "benchmark body"); err != nil {
			b.Fatal(err)
		}
	}
}
