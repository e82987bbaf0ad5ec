package netsim

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// echoPair returns a wrapped in-memory pair with an echo goroutine on the
// server side, torn down by the returned cancel func.
func echoPair(t *testing.T, p Profile) (net.Conn, func()) {
	t.Helper()
	client, server := Pipe(p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1024)
		for {
			n, err := server.Read(buf)
			if err != nil {
				return
			}
			if _, err := server.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	return client, func() {
		client.Close()
		server.Close()
		<-done
	}
}

func TestPerfectRoundTrip(t *testing.T) {
	client, stop := echoPair(t, Perfect)
	defer stop()
	msg := []byte("hello broker")
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := client.Read(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo = %q, want %q", buf, msg)
	}
}

func TestLatencyApplied(t *testing.T) {
	const lat = 5 * time.Millisecond
	client, stop := echoPair(t, Profile{Latency: lat})
	defer stop()

	start := time.Now()
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := client.Read(buf); err != nil {
		t.Fatal(err)
	}
	// Server read + client read each add one latency.
	if elapsed := time.Since(start); elapsed < 2*lat {
		t.Fatalf("round trip %v, want ≥ %v", elapsed, 2*lat)
	}
}

func TestJitterBounded(t *testing.T) {
	p := Profile{Latency: time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 7}
	c, s := Pipe(p)
	defer c.Close()
	defer s.Close()
	sc := c.(*Conn)
	for i := 0; i < 100; i++ {
		d := sc.delay()
		if d < p.Latency || d > p.Latency+p.Jitter {
			t.Fatalf("delay %v outside [%v, %v]", d, p.Latency, p.Latency+p.Jitter)
		}
	}
}

func TestJitterDeterministicWithSeed(t *testing.T) {
	mk := func() []time.Duration {
		c, s := Pipe(Profile{Jitter: time.Millisecond, Seed: 99})
		defer c.Close()
		defer s.Close()
		sc := c.(*Conn)
		out := make([]time.Duration, 20)
		for i := range out {
			out[i] = sc.delay()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDropProbability(t *testing.T) {
	// With DropProb=1 every write is dropped.
	c, s := Pipe(Profile{DropProb: 1})
	defer c.Close()
	defer s.Close()
	n, err := c.Write([]byte("lost"))
	if !errors.Is(err, ErrSimulatedDrop) {
		t.Fatalf("err = %v, want ErrSimulatedDrop", err)
	}
	if n != 4 {
		t.Fatalf("n = %d, want 4 (bytes vanish on the wire)", n)
	}
}

func TestDropSequenceDeterministicWithSeed(t *testing.T) {
	// Two identically seeded pipes must drop exactly the same writes, so
	// loss experiments are reproducible run to run.
	run := func() []bool {
		client, server := Pipe(Profile{DropProb: 0.5, Seed: 7})
		defer client.Close()
		defer server.Close()
		go func() {
			buf := make([]byte, 16)
			for {
				if _, err := server.Read(buf); err != nil {
					return
				}
			}
		}()
		outcomes := make([]bool, 64)
		for i := range outcomes {
			_, err := client.Write([]byte("x"))
			outcomes[i] = errors.Is(err, ErrSimulatedDrop)
		}
		return outcomes
	}
	a, b := run(), run()
	var drops int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("write %d diverged between identically seeded runs", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("drops = %d of %d, want a mixed sequence", drops, len(a))
	}
}

func TestNoDropWithZeroProbability(t *testing.T) {
	client, stop := echoPair(t, Profile{DropProb: 0})
	defer stop()
	for i := 0; i < 50; i++ {
		if _, err := client.Write([]byte("y")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		buf := make([]byte, 1)
		if _, err := client.Read(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

func TestBandwidthCapSlowsReads(t *testing.T) {
	// 1000 bytes at 100 KB/s ⇒ ≥10ms serialization.
	p := Profile{BandwidthBPS: 100_000}
	client, server := Pipe(p)
	defer client.Close()
	defer server.Close()

	payload := bytes.Repeat([]byte("z"), 1000)
	go func() {
		server.Write(payload)
	}()

	start := time.Now()
	buf := make([]byte, len(payload))
	total := 0
	for total < len(payload) {
		n, err := client.Read(buf[total:])
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		total += n
	}
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("1000B at 100KB/s took %v, want ≥8ms", elapsed)
	}
}

func TestDialer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
		close(accepted)
	}()

	d := Dialer{Profile: LAN, Timeout: time.Second}
	c, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*Conn); !ok {
		t.Fatalf("dialed conn has type %T, want *netsim.Conn", c)
	}
	if got := c.(*Conn).Profile(); got.Latency != LAN.Latency {
		t.Fatalf("profile latency = %v, want %v", got.Latency, LAN.Latency)
	}
	<-accepted
}

func TestDialerError(t *testing.T) {
	d := Dialer{Timeout: 50 * time.Millisecond}
	if _, err := d.Dial("tcp", "127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func BenchmarkPipeRoundTripPerfect(b *testing.B) {
	client, server := Pipe(Perfect)
	defer client.Close()
	defer server.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for {
			n, err := server.Read(buf)
			if err != nil {
				return
			}
			if _, err := server.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	msg := []byte("ping")
	buf := make([]byte, len(msg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	client.Close()
	server.Close()
	<-done
}
