package frontend

import (
	"net"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/registry"
)

// dialListener dials the front end's lease listener at addr.
func dialListener(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// sendLease writes cmd as one datagram.
func sendLease(t *testing.T, conn net.Conn, cmd registry.Command) {
	t.Helper()
	if _, err := conn.Write([]byte(registry.FormatCommand(cmd))); err != nil {
		t.Fatal(err)
	}
}

// waitForRow waits until d's pool has a row for addr that satisfies cond.
func waitForRow(t *testing.T, d *Distributed, addr, what string, cond func(registry.PoolView) bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		for _, v := range d.PoolStatus() {
			if v.Addr == addr && cond(v) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, d.PoolStatus())
		}
	}
}

// TestListenerDispatchesLeaseCommands sends REGISTER and DEREGISTER to the
// listener a distributed front end enables and checks the pool follows them,
// with the load the lease carries on the member's row.
func TestListenerDispatchesLeaseCommands(t *testing.T) {
	gw, _ := testStack(t, 0)
	d, err := NewDistributed("127.0.0.1:0", gw, testRoutes)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l, err := d.EnableRegistry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := dialListener(t, l.Addr())

	const addr = "127.0.0.1:7101"
	sendLease(t, conn, lease(addr, 5, 16, false))
	waitForRow(t, d, addr, "the leased member", func(v registry.PoolView) bool {
		return v.Source == "lease" && v.State == "live" && v.Outstanding == 5 && v.Threshold == 16
	})
	if ms := d.registry.Members("db"); len(ms) != 1 || ms[0].Addr != addr {
		t.Fatalf("members = %+v, want the one lease", ms)
	}

	sendLease(t, conn, registry.Command{Verb: registry.VerbDeregister, Service: "db", Addr: addr})
	waitForRow(t, d, addr, "the member's departure", func(v registry.PoolView) bool {
		return !strings.HasPrefix(v.State, "live")
	})
	if ms := d.registry.Members("db"); len(ms) != 0 {
		t.Fatalf("members = %+v after DEREGISTER, want none", ms)
	}
}

// TestListenerReceivesReports sends a centralized front end two leases for
// one broker and checks the later load is the one it holds, and that the
// listener counts both datagrams.
func TestListenerReceivesReports(t *testing.T) {
	gw, _ := testStack(t, 0)
	c, err := NewCentralized("127.0.0.1:0", gw, "127.0.0.1:0", testRoutes, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := dialListener(t, c.ListenerAddr())

	register := lease(gw, 7, 20, false)
	register.Load.QueueLen = 3
	renew := register
	renew.Verb = registry.VerbRenew
	renew.Load = broker.LoadReport{Service: "db", Outstanding: 19, Threshold: 20, QueueLen: 9, Hot: true}
	sendLease(t, conn, register)
	sendLease(t, conn, renew)

	waitForRow(t, c.Distributed, gw, "the renewed load", func(v registry.PoolView) bool {
		return v.Source == "lease" && v.Outstanding == 19
	})
	ms := c.registry.Members("db")
	if len(ms) != 1 || ms[0].Load != renew.Load || ms[0].Renewals != 1 {
		t.Fatalf("members = %+v, want one member holding %+v", ms, renew.Load)
	}
	if n := c.ListenerUpdates(); n < 2 {
		t.Fatalf("listener updates = %d, want 2", n)
	}
}
