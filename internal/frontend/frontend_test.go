package frontend

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/trace"
)

// testStack builds broker(s) + gateway and returns the gateway address.
func testStack(t *testing.T, process time.Duration, opts ...broker.Option) (string, *broker.Broker) {
	t.Helper()
	b, err := broker.New(&backend.DelayConnector{ServiceName: "db", ProcessTime: process}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	g, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{"db": b})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g.Addr().String(), b
}

var testRoutes = []Route{{
	Pattern:      "/db",
	Service:      "db",
	DefaultClass: qos.Class3,
}}

// model is one deployment model as the shared-behaviour table starts it:
// both are a *Distributed, the centralized one with its registry, profiles
// and admission step in front.
type model struct {
	name string
	sent string // the counter a forwarded request bumps
	new  func(gw string) (*Distributed, error)
}

var models = []model{
	{"distributed", "forwarded", func(gw string) (*Distributed, error) {
		return NewDistributed("127.0.0.1:0", gw, testRoutes)
	}},
	{"centralized", "admitted", func(gw string) (*Distributed, error) {
		profiles := map[string][]Demand{"/db": {{Service: "db", Weight: 1}}}
		c, err := NewCentralized("127.0.0.1:0", gw, "127.0.0.1:0", testRoutes, profiles)
		if err != nil {
			return nil, err
		}
		return c.Distributed, nil
	}},
}

// TestSharedBehaviours runs everything the two models have in common against
// both of them: there is one implementation, and this is the test that a
// behaviour added to it works under either constructor.
func TestSharedBehaviours(t *testing.T) {
	behaviours := []struct {
		name string
		opts []broker.Option
		slow time.Duration // backend processing time
		run  func(t *testing.T, m model, d *Distributed, b *broker.Broker, cli *httpserver.Client)
	}{
		{name: "forward", run: func(t *testing.T, m model, d *Distributed, _ *broker.Broker, cli *httpserver.Client) {
			resp, err := cli.Get("/db", map[string]string{"q": "SELECT 1", "qos": "1"})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != 200 || string(resp.Body) != "done:SELECT 1" {
				t.Fatalf("resp = %d %q", resp.Status, resp.Body)
			}
			if resp.Header["x-fidelity"] != "full" || resp.Header["x-broker-status"] != "ok" {
				t.Fatalf("headers = %v", resp.Header)
			}
			if got := d.Metrics().Counter(m.sent).Value(); got != 1 {
				t.Fatalf("%s = %d, want 1", m.sent, got)
			}
		}},
		{name: "shed headers", slow: 300 * time.Millisecond,
			opts: []broker.Option{broker.WithThreshold(2, 2), broker.WithWorkers(1)},
			run: func(t *testing.T, _ model, d *Distributed, _ *broker.Broker, cli *httpserver.Client) {
				// Saturate class 2's share.
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					cli.Get("/db", map[string]string{"q": "fill", "qos": "1"})
				}()
				time.Sleep(60 * time.Millisecond)

				resp, err := cli.Get("/db", map[string]string{"q": "x", "qos": "2"})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Header["x-broker-status"] != "shed" || resp.Header["x-fidelity"] != "busy" {
					t.Fatalf("headers = %v body = %q", resp.Header, resp.Body)
				}
				if ms, err := strconv.Atoi(resp.Header["x-retry-after-ms"]); err != nil || ms <= 0 {
					t.Fatalf("x-retry-after-ms = %q, want positive integer", resp.Header["x-retry-after-ms"])
				}
				if !strings.Contains(string(resp.Body), "busy") {
					t.Fatalf("body = %q", resp.Body)
				}
				wg.Wait()
				if d.Metrics().Counter("shed").Value() != 1 {
					t.Fatal("shed not counted")
				}
			}},
		{name: "txn tagging", opts: []broker.Option{broker.WithTransactions()},
			run: func(t *testing.T, _ model, _ *Distributed, b *broker.Broker, cli *httpserver.Client) {
				resp, err := cli.Get("/db", map[string]string{
					"q": "purchase", "qos": "3", "txn": "order-7", "step": "3",
				})
				if err != nil || resp.Status != 200 {
					t.Fatalf("resp = %+v, %v", resp, err)
				}
				if s, ok := b.Tracker().Lookup("order-7"); !ok || s.Step != 3 {
					t.Fatalf("tracker state = %+v, %v", s, ok)
				}
				// A txn tag with a missing/garbage step defaults to step 1.
				resp, err = cli.Get("/db", map[string]string{"q": "browse", "qos": "3", "txn": "order-8"})
				if err != nil || resp.Status != 200 {
					t.Fatalf("resp = %+v, %v", resp, err)
				}
				if s, ok := b.Tracker().Lookup("order-8"); !ok || s.Step != 1 {
					t.Fatalf("tracker state = %+v, %v", s, ok)
				}
			}},
		{name: "tracing", run: func(t *testing.T, _ model, d *Distributed, _ *broker.Broker, cli *httpserver.Client) {
			rec := trace.NewRecorder()
			d.EnableTracing(rec)
			resp, err := cli.Get("/db", map[string]string{"q": "traced", "qos": "2"})
			if err != nil || resp.Status != 200 {
				t.Fatalf("resp = %+v, %v", resp, err)
			}
			traces := rec.Snapshot(trace.Filter{Service: "db"})
			if len(traces) != 1 || traces[0].Class != 2 || traces[0].Status != "ok" {
				t.Fatalf("traces = %+v, want one ok class-2 trace", traces)
			}
			if got := resp.Header["x-trace-id"]; got != traces[0].ID.String() {
				t.Fatalf("x-trace-id = %q, recorder has %s", got, traces[0].ID)
			}
			if len(traces[0].Spans) == 0 || traces[0].Spans[0].Stage != trace.StageWire {
				t.Fatalf("spans = %+v, want the wire span first", traces[0].Spans)
			}
		}},
		{name: "registry discovery", run: func(t *testing.T, _ model, d *Distributed, _ *broker.Broker, _ *httpserver.Client) {
			l, err := d.EnableRegistry("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := d.EnableRegistry("127.0.0.1:0"); again != l {
				t.Fatal("a second EnableRegistry bound a second listener")
			}
			conn, err := net.Dial("udp", l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			cmd := registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: "127.0.0.1:7101",
				TTL: time.Minute, Load: broker.LoadReport{Service: "db", Outstanding: 5, Threshold: 16}}
			if _, err := conn.Write([]byte(registry.FormatCommand(cmd))); err != nil {
				t.Fatal(err)
			}
			pages := d.AdminPages("fe")
			// The load the lease carries is on the member's /poolz row.
			want := regexp.MustCompile(`pool=fe service=db addr=127\.0\.0\.1:7101 source=lease state=live ttl=\S+ renewals=0 outstanding=5/16 queue=0 cool`)
			var poolz bytes.Buffer
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				poolz.Reset()
				pages["/poolz"](&poolz, 0)
				if want.Match(poolz.Bytes()) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("/poolz never showed the leased member and its load:\n%s", poolz.String())
				}
			}
			if _, ok := pages["/loadz"]; ok {
				t.Fatal("the front end registers a /loadz page")
			}
		}},
		{name: "drain", slow: 100 * time.Millisecond,
			run: func(t *testing.T, _ model, d *Distributed, _ *broker.Broker, cli *httpserver.Client) {
				type result struct {
					resp *httpserver.Response
					err  error
				}
				inflight := make(chan result, 1)
				go func() {
					resp, err := cli.Get("/db", map[string]string{"q": "slow", "qos": "1"})
					inflight <- result{resp, err}
				}()
				time.Sleep(30 * time.Millisecond) // let it reach the backend
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := d.Drain(ctx); err != nil {
					t.Fatalf("Drain: %v", err)
				}
				// Drain returned, so the in-flight request has been answered.
				select {
				case r := <-inflight:
					if r.err != nil || r.resp.Status != 200 || string(r.resp.Body) != "done:slow" {
						t.Fatalf("in-flight request = %+v, %v", r.resp, r.err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("Drain returned with the in-flight request unanswered")
				}
				late := httpserver.NewClient(d.Addr())
				defer late.Close()
				if resp, err := late.Get("/db", map[string]string{"q": "late"}); err == nil {
					t.Fatalf("a drained front end accepted a new connection: %+v", resp)
				}
			}},
	}
	for _, m := range models {
		for _, bh := range behaviours {
			t.Run(m.name+"/"+bh.name, func(t *testing.T) {
				gw, b := testStack(t, bh.slow, bh.opts...)
				d, err := m.new(gw)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				cli := httpserver.NewClient(d.Addr())
				defer cli.Close()
				bh.run(t, m, d, b, cli)
			})
		}
	}
}

func TestDistributedDefaultClassAndPayload(t *testing.T) {
	gw, b := testStack(t, 0)
	routes := []Route{{
		Pattern: "/custom",
		Service: "db",
		Payload: func(req *httpserver.Request) []byte {
			return []byte("custom:" + req.Query["item"])
		},
		DefaultClass: qos.Class2,
	}}
	d, err := NewDistributed("127.0.0.1:0", gw, routes)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli := httpserver.NewClient(d.Addr())
	defer cli.Close()
	resp, err := cli.Get("/custom", map[string]string{"item": "42"})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "done:custom:42" {
		t.Fatalf("body = %q", resp.Body)
	}
	if got := b.Metrics().Counter("requests_class_2").Value(); got != 1 {
		t.Fatalf("class-2 requests = %d, want 1 (route default)", got)
	}
}

func TestDistributedValidation(t *testing.T) {
	if _, err := NewDistributed("127.0.0.1:0", "127.0.0.1:9", nil); err == nil {
		t.Fatal("no routes accepted")
	}
}

// lease builds the REGISTER a broker at addr sends for db with the given
// load.
func lease(addr string, outstanding, threshold int, hot bool) registry.Command {
	return registry.Command{Verb: registry.VerbRegister, Service: "db", Addr: addr, TTL: time.Minute,
		Load: broker.LoadReport{Service: "db", Outstanding: outstanding, Threshold: threshold, Hot: hot}}
}

func TestCentralizedAdmitsAndAborts(t *testing.T) {
	gw, _ := testStack(t, 0)
	profiles := map[string][]Demand{"/db": {{Service: "db", Weight: 1}}}
	c, err := NewCentralized("127.0.0.1:0", gw, "127.0.0.1:0", testRoutes, profiles)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli := httpserver.NewClient(c.Addr())
	defer cli.Close()

	// Light load: admitted.
	c.registry.Apply(lease(gw, 0, 20, false))
	resp, err := cli.Get("/db", map[string]string{"q": "ok", "qos": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("light-load status = %d body %q", resp.Status, resp.Body)
	}

	// The broker's lease declares overload.
	c.registry.Apply(lease(gw, 20, 20, true))
	resp, err = cli.Get("/db", map[string]string{"q": "doomed", "qos": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 503 {
		t.Fatalf("overload status = %d, want 503 (aborted up front)", resp.Status)
	}
	if c.Metrics().Counter("aborted").Value() != 1 {
		t.Fatal("abort not counted")
	}

	// Recovery: a fresh lease re-opens the gate.
	c.registry.Apply(lease(gw, 0, 20, false))
	resp, _ = cli.Get("/db", map[string]string{"q": "ok2", "qos": "1"})
	if resp.Status != 200 {
		t.Fatalf("recovery status = %d", resp.Status)
	}
}

func TestCentralizedFailsOpenWithoutReports(t *testing.T) {
	gw, _ := testStack(t, 0)
	profiles := map[string][]Demand{"/db": {{Service: "db"}}}
	c, err := NewCentralized("127.0.0.1:0", gw, "127.0.0.1:0", testRoutes, profiles)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cli := httpserver.NewClient(c.Addr())
	defer cli.Close()
	resp, err := cli.Get("/db", map[string]string{"q": "warmup", "qos": "1"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("warmup = %d, %v (should fail open before first report)", resp.Status, err)
	}
}

func TestCentralizedRouteWithoutProfile(t *testing.T) {
	gw, _ := testStack(t, 0)
	c, err := NewCentralized("127.0.0.1:0", gw, "127.0.0.1:0", testRoutes, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Even with an "overloaded" lease, no profile means no admission check.
	c.registry.Apply(lease(gw, 99, 20, false))
	cli := httpserver.NewClient(c.Addr())
	defer cli.Close()
	resp, err := cli.Get("/db", map[string]string{"q": "x", "qos": "1"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("resp = %d, %v", resp.Status, err)
	}
}

// TestCentralizedAdmitsOnAnyLiveMember pins admission over a replicated pool:
// a request is admitted while some live member has headroom, whichever
// member renewed last, and routed to that member; it is aborted only when
// every live member is full.
func TestCentralizedAdmitsOnAnyLiveMember(t *testing.T) {
	const idle = "127.0.0.1:1" // B: nothing listens there
	for _, tc := range []struct {
		name         string
		aOutstanding int // A is the real gateway; B, renewing last, is full
		status       int
	}{
		{"one member has headroom", 0, 200},
		{"every member full", 20, 503},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw, _ := testStack(t, 0)
			profiles := map[string][]Demand{"/db": {{Service: "db", Weight: 1}}}
			c, err := NewCentralized("127.0.0.1:0", gw, "127.0.0.1:0", testRoutes, profiles)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			l, err := c.EnableRegistry("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("udp", l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for _, cmd := range []registry.Command{lease(gw, tc.aOutstanding, 20, false), lease(idle, 20, 20, true)} {
				if _, err := conn.Write([]byte(registry.FormatCommand(cmd))); err != nil {
					t.Fatal(err)
				}
			}
			waitForPool(t, c.Distributed, gw, idle)

			cli := httpserver.NewClient(c.Addr())
			defer cli.Close()
			resp, err := cli.Get("/db", map[string]string{"q": "x", "qos": "1"})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != tc.status {
				t.Fatalf("status = %d %q, want %d", resp.Status, resp.Body, tc.status)
			}
			if tc.status == 200 && string(resp.Body) != "done:x" {
				t.Fatalf("body = %q, want the answer of A's broker", resp.Body)
			}
			wantAborted := int64(0)
			if tc.status == 503 {
				wantAborted = 1
			}
			if got := c.Metrics().Counter("aborted").Value(); got != wantAborted {
				t.Fatalf("aborted = %d, want %d", got, wantAborted)
			}
		})
	}
}

// waitForPool waits until every addr has a live lease row on d's pool.
func waitForPool(t *testing.T, d *Distributed, addrs ...string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		live := 0
		for _, v := range d.PoolStatus() {
			if v.Source == "lease" && strings.HasPrefix(v.State, "live") && slices.Contains(addrs, v.Addr) {
				live++
			}
		}
		if live == len(addrs) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never listed %v live: %+v", addrs, d.PoolStatus())
		}
	}
}

// TestListenerRejectsOversizedDatagram: UDP truncates a datagram to the read
// buffer without saying so, so a buffer no longer than the longest valid
// command would read an oversized line as its valid prefix.
func TestListenerRejectsOversizedDatagram(t *testing.T) {
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
	conn, err := net.Dial("udp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	oversized := "REGISTER db 127.0.0.1:7101 3000 0 20 0 cool" + strings.Repeat(" ", 600) + "garbage"
	sentinel := registry.FormatCommand(lease("127.0.0.1:7102", 0, 20, false))
	for _, line := range []string{oversized, sentinel} {
		if _, err := conn.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	waitForPool(t, d, "127.0.0.1:7102")
	for _, v := range d.PoolStatus() {
		if v.Addr == "127.0.0.1:7101" {
			t.Fatalf("the prefix of an oversized datagram was applied: %+v", v)
		}
	}
}

func TestCentralizedValidation(t *testing.T) {
	if _, err := NewCentralized("127.0.0.1:0", "127.0.0.1:9", "127.0.0.1:0", nil, nil); err == nil {
		t.Fatal("no routes accepted")
	}
}

func TestConcurrentFrontendTraffic(t *testing.T) {
	gw, _ := testStack(t, time.Millisecond, broker.WithThreshold(50, 3), broker.WithWorkers(8))
	d, err := NewDistributed("127.0.0.1:0", gw, testRoutes)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli := httpserver.NewClient(d.Addr(), httpserver.WithPersistent(1))
			defer cli.Close()
			for j := 0; j < 10; j++ {
				resp, err := cli.Get("/db", map[string]string{
					"q": fmt.Sprintf("q-%d-%d", i, j), "qos": fmt.Sprint(i%3 + 1),
				})
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if resp.Status != 200 {
					t.Errorf("status = %d body %q", resp.Status, resp.Body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestFrontendRelaysBackendError(t *testing.T) {
	// A broker whose backend always fails surfaces 502 at the front end.
	failing, err := broker.New(&backend.FuncConnector{
		ServiceName: "db",
		DoFn: func(context.Context, []byte) ([]byte, error) {
			return nil, fmt.Errorf("backend exploded")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer failing.Close()
	g, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{"db": failing})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	d, err := NewDistributed("127.0.0.1:0", g.Addr().String(), testRoutes)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli := httpserver.NewClient(d.Addr())
	defer cli.Close()
	resp, err := cli.Get("/db", map[string]string{"q": "x", "qos": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 502 || !strings.Contains(string(resp.Body), "exploded") {
		t.Fatalf("resp = %d %q", resp.Status, resp.Body)
	}
}

// A qos parameter the wire's class byte cannot carry falls back to the
// route's default instead of wrapping round to some other class.
func TestClassOfRejectsWhatTheWireCannotCarry(t *testing.T) {
	route := Route{DefaultClass: qos.Class2}
	for v, want := range map[string]qos.Class{"1": 1, "255": 255, "256": 2, "300": 2, "0": 2, "-4": 2, "x": 2, "": 2} {
		req := &httpserver.Request{Query: map[string]string{"qos": v}}
		if got := classOf(req, route); got != want {
			t.Errorf("qos=%q: class %d, want %d", v, int(got), int(want))
		}
	}
}
