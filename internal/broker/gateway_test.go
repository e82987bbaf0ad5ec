package broker

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/qos"
)

// startGateway spins up two brokers behind a gateway plus a client.
func startGateway(t *testing.T) (*Gateway, *Client) {
	t.Helper()
	db, err := New(&backend.DelayConnector{ServiceName: "db"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mail, err := New(&backend.DelayConnector{ServiceName: "mail", ProcessTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mail.Close() })

	g, err := NewGateway("127.0.0.1:0", map[string]*Broker{"db": db, "mail": mail})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	cli, err := DialGateway(g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return g, cli
}

func TestGatewayRoutesByService(t *testing.T) {
	_, cli := startGateway(t)
	resp, err := cli.Do(context.Background(), "db", &Request{Payload: []byte("query"), Class: qos.Class1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || string(resp.Payload) != "done:query" {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestGatewayIdentity: a traced request is answered with the gateway's
// identity, its listen address unless SetIdentity overrides it (NAT, 0.0.0.0).
func TestGatewayIdentity(t *testing.T) {
	g, cli := startGateway(t)
	for _, want := range []string{g.Addr().String(), "broker-7.example:7100"} {
		if want != g.Identity() {
			g.SetIdentity(want)
		}
		resp, err := cli.Do(context.Background(), "db", &Request{Payload: []byte("q"), TraceID: 42})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Broker != want {
			t.Fatalf("response stamped %q, want %q", resp.Broker, want)
		}
	}
}

func TestGatewayUnknownService(t *testing.T) {
	_, cli := startGateway(t)
	resp, err := cli.Do(context.Background(), "ghost", &Request{Payload: []byte("q")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || resp.Err == nil {
		t.Fatalf("resp = %+v", resp)
	}
	if !strings.Contains(resp.Err.Error(), "unknown service") {
		t.Fatalf("err = %v", resp.Err)
	}
}

func TestGatewayServices(t *testing.T) {
	g, _ := startGateway(t)
	names := g.Services()
	if len(names) != 2 || names[0] != "db" || names[1] != "mail" {
		t.Fatalf("services = %v", names)
	}
}

func TestClientMulti(t *testing.T) {
	_, cli := startGateway(t)
	services := []string{"db", "mail", "db"}
	reqs := []*Request{
		{Payload: []byte("a"), Class: qos.Class1},
		{Payload: []byte("b"), Class: qos.Class2},
		{Payload: []byte("c"), Class: qos.Class1},
	}
	start := time.Now()
	resps, err := cli.Multi(context.Background(), services, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("resps = %d", len(resps))
	}
	for i, want := range []string{"done:a", "done:b", "done:c"} {
		if string(resps[i].Payload) != want {
			t.Fatalf("resp %d = %q, want %q", i, resps[i].Payload, want)
		}
	}
	// Parallel fan-out should not serialize the 5ms mail delay behind db.
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("Multi took %v", elapsed)
	}
	// Length mismatch is an error.
	if _, err := cli.Multi(context.Background(), []string{"db"}, reqs); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestGatewayPropagatesDrop(t *testing.T) {
	slow, err := New(&backend.DelayConnector{ServiceName: "slow", ProcessTime: 300 * time.Millisecond},
		WithThreshold(2, 2), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	g, err := NewGateway("127.0.0.1:0", map[string]*Broker{"slow": slow})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	cli, err := DialGateway(g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Saturate class 2's share (threshold 2, classes 2 ⇒ class-2 limit 1).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli.Do(context.Background(), "slow", &Request{Payload: []byte("fill"), Class: qos.Class1})
	}()
	time.Sleep(50 * time.Millisecond)

	resp, err := cli.Do(context.Background(), "slow", &Request{Payload: []byte("x"), Class: qos.Class2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusShed || resp.Fidelity != qos.FidelityBusy {
		t.Fatalf("resp = %+v, want shed/busy over the wire", resp)
	}
	if resp.RetryAfter <= 0 {
		t.Fatalf("shed wire response lost its retry-after hint: %+v", resp)
	}
	wg.Wait()
}

func TestGatewayValidation(t *testing.T) {
	if _, err := NewGateway("127.0.0.1:0", nil); err == nil {
		t.Fatal("empty broker map accepted")
	}
	if _, err := NewGateway("127.0.0.1:0", map[string]*Broker{"x": nil}); err == nil {
		t.Fatal("nil broker accepted")
	}
}

func TestClientDoNilRequest(t *testing.T) {
	_, cli := startGateway(t)
	if _, err := cli.Do(context.Background(), "db", nil); err == nil {
		t.Fatal("nil request accepted")
	}
}

func TestClassTimeout(t *testing.T) {
	if got := ClassTimeout(time.Second, qos.Class3); got != 3*time.Second {
		t.Fatalf("timeout = %v", got)
	}
	if got := ClassTimeout(time.Second, qos.Class(0)); got != time.Second {
		t.Fatalf("timeout = %v", got)
	}
}

func TestGatewayConcurrentClients(t *testing.T) {
	g, _ := startGateway(t)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := DialGateway(g.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cli.Close()
			for j := 0; j < 10; j++ {
				resp, err := cli.Do(context.Background(), "db", &Request{Payload: []byte("q"), Class: qos.Class1})
				if err != nil || resp.Status != StatusOK {
					t.Errorf("client %d call %d: %+v, %v", i, j, resp, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
