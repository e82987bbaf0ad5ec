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

func TestProtocolSendListRetr(t *testing.T) {
	_, cli := startMail(t)
	body := "line one\nline two\n.leading dot"
	if err := cli.Send("from@x.com", []string{"to@x.com"}, body); err != nil {
		t.Fatal(err)
	}
	sums, err := cli.List("to@x.com")
	if err != nil || len(sums) != 1 {
		t.Fatalf("List = %v, %v", sums, err)
	}
	if sums[0].From != "from@x.com" {
		t.Fatalf("summary = %+v", sums[0])
	}
	got, err := cli.Retr("to@x.com", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != body {
		t.Fatalf("Retr = %q, want %q (dot-stuffing round trip)", got, body)
	}
}

func TestProtocolMultipleRecipients(t *testing.T) {
	_, cli := startMail(t)
	if err := cli.Send("a@x.com", []string{"b@x.com", "c@x.com", "d@x.com"}, "fanout"); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"b@x.com", "c@x.com", "d@x.com"} {
		if sums, err := cli.List(u); err != nil || len(sums) != 1 {
			t.Fatalf("List(%s) = %v, %v", u, sums, err)
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	_, cli := startMail(t)
	if err := cli.Send("nodomain", []string{"b@x.com"}, "x"); err == nil {
		t.Fatal("bad sender accepted")
	}
	if _, err := cli.List("ghost@x.com"); err == nil {
		t.Fatal("missing mailbox listed")
	}
	if _, err := cli.Retr("ghost@x.com", 1); err == nil {
		t.Fatal("missing mailbox retrieved")
	}
	// The session survives all of the above.
	if err := cli.Send("ok@x.com", []string{"b@x.com"}, "fine"); err != nil {
		t.Fatalf("session dead: %v", err)
	}
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
				if err := cli.Send(fmt.Sprintf("s%d@x.com", i), []string{"inbox@x.com"}, "msg"); err != nil {
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
	sums, err := cli.List("inbox@x.com")
	if err != nil || len(sums) != 60 {
		t.Fatalf("List = %d msgs, %v; want 60", len(sums), err)
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
	if err := cli.Send("a@x.com", []string{"b@x.com"}, body); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Retr("b@x.com", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != body {
		t.Fatalf("body = %q, want %q", got, body)
	}
	if !strings.Contains(got, "plain") {
		t.Fatal("body lost content")
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
