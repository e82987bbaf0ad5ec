package netsim

import (
	"net"
	"testing"
	"time"
)

// packetPair binds two loopback UDP sockets and returns them plus the
// address of the second.
func packetPair(t *testing.T) (a net.PacketConn, b net.PacketConn, bAddr net.Addr) {
	t.Helper()
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b, b.LocalAddr()
}

func recvWithin(t *testing.T, pc net.PacketConn, d time.Duration) (string, bool) {
	t.Helper()
	if err := pc.SetReadDeadline(time.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		return "", false
	}
	return string(buf[:n]), true
}

func TestPacketConnGateOutbound(t *testing.T) {
	rawSender, recv, recvAddr := packetPair(t)
	gate := &Gate{}
	sender := NewPacketConn(rawSender, Perfect, gate)

	gate.PartitionOutbound(true)
	n, err := sender.WriteTo([]byte("lost"), recvAddr)
	if err != nil || n != 4 {
		t.Fatalf("gated-out write should pretend success, got n=%d err=%v", n, err)
	}
	if msg, ok := recvWithin(t, recv, 100*time.Millisecond); ok {
		t.Fatalf("gated-out datagram delivered: %q", msg)
	}

	gate.PartitionOutbound(false)
	if _, err := sender.WriteTo([]byte("through"), recvAddr); err != nil {
		t.Fatal(err)
	}
	if msg, ok := recvWithin(t, recv, time.Second); !ok || msg != "through" {
		t.Fatalf("ungated datagram not delivered (got %q, ok=%v)", msg, ok)
	}
}

func TestPacketConnHangBlocksBothDirections(t *testing.T) {
	peer, rawHost, hostAddr := packetPair(t)
	gate := &Gate{}
	host := NewPacketConn(rawHost, Perfect, gate)

	gate.SetHang(true)
	if _, err := peer.WriteTo([]byte("in"), hostAddr); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, host, 100*time.Millisecond); ok {
		t.Fatal("hung host received a datagram")
	}
	if _, err := host.WriteTo([]byte("out"), peer.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, peer, 100*time.Millisecond); ok {
		t.Fatal("hung host's datagram escaped")
	}

	gate.SetHang(false)
	if _, err := host.WriteTo([]byte("alive"), peer.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if msg, ok := recvWithin(t, peer, time.Second); !ok || msg != "alive" {
		t.Fatalf("un-hung host still silent (got %q, ok=%v)", msg, ok)
	}
}

func TestPacketConnDeterministicDrops(t *testing.T) {
	// Same seed → same survivor set, like the stream-Conn determinism test.
	run := func() []int {
		sender, recv, recvAddr := packetPair(t)
		lossy := NewPacketConn(recv, Profile{DropProb: 0.5, Seed: 7}, nil)
		var got []int
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 8)
			lossy.SetReadDeadline(time.Now().Add(2 * time.Second))
			for {
				n, _, err := lossy.ReadFrom(buf)
				if err != nil {
					return
				}
				got = append(got, int(buf[0]))
				_ = n
			}
		}()
		for i := 0; i < 20; i++ {
			if _, err := sender.WriteTo([]byte{byte(i)}, recvAddr); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond) // keep arrival order deterministic
		}
		lossy.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		<-done
		return got
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 20 {
		t.Fatalf("drop model inert: %d of 20 delivered", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("drop pattern not deterministic: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop pattern not deterministic: %v vs %v", a, b)
		}
	}
}
