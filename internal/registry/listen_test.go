package registry

import (
	"net"
	"testing"
	"time"
)

// listen starts a Listener applying to a fresh registry and dials it.
func listen(t *testing.T) (*Registry, net.Conn) {
	t.Helper()
	r := New(Config{})
	l, err := Listen("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	conn, err := net.Dial("udp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return r, conn
}

// send writes each line as one datagram.
func send(t *testing.T, conn net.Conn, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if _, err := conn.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestListenerDispatchesLeaseCommands(t *testing.T) {
	r, conn := listen(t)
	register := registerCmd("db", "127.0.0.1:7101", time.Minute)
	send(t, conn, FormatCommand(register))
	waitFor(t, "the REGISTER and its load", func() bool {
		ms := r.Members("db")
		return len(ms) == 1 && ms[0].Load == register.Load
	})

	renew := register
	renew.Verb = VerbRenew
	renew.Load.Outstanding, renew.Load.Hot = 9, true
	send(t, conn, FormatCommand(renew))
	waitFor(t, "the RENEW and its load", func() bool {
		ms := r.Members("db")
		return len(ms) == 1 && ms[0].Load == renew.Load && ms[0].Renewals == 1
	})

	send(t, conn, FormatCommand(Command{Verb: VerbDeregister, Service: "db", Addr: "127.0.0.1:7101"}))
	waitFor(t, "the DEREGISTER", func() bool { return len(r.Members("db")) == 0 })
}

func TestListenerIgnoresGarbage(t *testing.T) {
	r, conn := listen(t)
	send(t, conn,
		"NOISE not a report",
		"LOAD db 3 20 1 hot",
		"REGISTER db x y z",
		"RENEW db 127.0.0.1:7101 3000 -1 20 0 cool",
		"",
		FormatCommand(registerCmd("db", "127.0.0.1:7102", time.Minute)))
	// Datagrams from one loopback socket arrive in order, so once the valid
	// lease has landed every line before it has been read.
	waitFor(t, "the valid lease", func() bool { return len(r.Members("db")) == 1 })
	if rows := r.Snapshot(); len(rows) != 1 || rows[0].Addr != "127.0.0.1:7102" {
		t.Fatalf("rows = %+v, want only the valid lease", rows)
	}
}
