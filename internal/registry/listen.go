package registry

import (
	"fmt"
	"net"
)

// Listener is a front end's lease socket — the paper's listener thread: a
// goroutine that parses each control datagram once and applies it to a
// Registry. Garbage drops silently.
type Listener struct {
	conn net.PacketConn
	done chan struct{}
}

// Listen binds a UDP socket on addr ("127.0.0.1:0" for ephemeral) and
// applies every valid datagram it receives to reg until Close.
func Listen(addr string, reg *Registry) (*Listener, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("registry: listen %s: %w", addr, err)
	}
	l := &Listener{conn: conn, done: make(chan struct{})}
	go l.run(reg)
	return l, nil
}

// Addr returns the bound UDP address: the one brokers register to.
func (l *Listener) Addr() string { return l.conn.LocalAddr().String() }

func (l *Listener) run(reg *Registry) {
	defer close(l.done)
	// UDP truncates a datagram longer than the buffer without saying so. One
	// byte past the longest valid line keeps an oversized datagram oversized,
	// so ParseCommand rejects it instead of applying its prefix.
	buf := make([]byte, maxCommandLine+1)
	for {
		n, _, err := l.conn.ReadFrom(buf)
		if err != nil {
			return
		}
		if cmd, err := ParseCommand(string(buf[:n])); err == nil {
			reg.Apply(cmd)
		}
	}
}

// Close releases the socket and waits for the receive goroutine to exit.
func (l *Listener) Close() error {
	err := l.conn.Close()
	<-l.done
	return err
}
