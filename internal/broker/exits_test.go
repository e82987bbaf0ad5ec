package broker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/resilience"
	"servicebroker/internal/slo"
	"servicebroker/internal/trace"
)

// exitRig is a broker with every accounting sink attached, so one request's
// disposition can be audited from the outside: a trace recorder aggregating
// into its own registry, and an SLO engine with an objective per class.
type exitRig struct {
	t        *testing.T
	b        *Broker
	g        *gateConnector
	traceReg *metrics.Registry
}

func newExitRig(t *testing.T, conn backend.Connector, opts ...Option) *exitRig {
	t.Helper()
	rig := &exitRig{t: t, traceReg: metrics.NewRegistry()}
	if conn == nil {
		rig.g = newGateConnector()
		conn = rig.g.connector()
	}
	objectives := make([]slo.Objective, 3)
	for i := range objectives {
		objectives[i] = slo.Objective{Class: qos.Class(i + 1), LatencyTarget: time.Minute, LatencyGoal: 0.9, AvailabilityGoal: 0.9}
	}
	opts = append([]Option{
		WithTracer(trace.NewRecorder(trace.WithMetrics(rig.traceReg))),
		WithSLO(slo.Config{Objectives: objectives, FastWindow: time.Minute, SlowWindow: time.Hour,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}),
	}, opts...)
	rig.b = newBroker(t, conn, opts...)
	return rig
}

// inflight starts req on its own goroutine and returns once its backend
// access has begun (gate connector only), with the channel its answer lands
// on.
func (rig *exitRig) inflight(ctx context.Context, req *Request) <-chan *Response {
	done := make(chan *Response, 1)
	go func() { done <- rig.b.Handle(ctx, req) }()
	select {
	case <-rig.g.started:
	case resp := <-done:
		rig.t.Fatalf("request was answered before it reached the backend: %+v", resp)
	}
	return done
}

func (rig *exitRig) finished(status string) int64 {
	return rig.traceReg.Counter("trace.db.finished" + status).Value()
}

// waitFor polls cond: the few events the table needs that happen on another
// goroutine (a duplicate has joined a flight, a worker has finished a job
// whose caller left).
func (rig *exitRig) waitFor(what string, cond func() bool) {
	rig.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			rig.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// audit asserts the accounting invariant after a case has driven its
// requests: every request is exactly one finished trace with the expected
// status, one SLO event and one per-class disposition, and nothing it owned
// is left open.
func (rig *exitRig) audit(want map[string]int64) {
	t, reg := rig.t, rig.b.Metrics()
	t.Helper()
	total := want["ok"] + want["dropped"] + want["shed"] + want["error"]
	// The worker finishes a request whose caller has left after Handle
	// returned; everything else is finished by the time Handle returns.
	// finish seals the trace last, and the recorder counts a trace's status
	// last, so once the per-status counts add up nothing is still in motion.
	rig.waitFor("every trace to finish", func() bool {
		return rig.finished("_ok")+rig.finished("_dropped")+rig.finished("_shed")+rig.finished("_error") >= total
	})
	if got := rig.finished(""); got != total {
		t.Errorf("finished traces = %d, want %d (one per request)", got, total)
	}
	for status, n := range want {
		if got := rig.finished("_" + status); got != n {
			t.Errorf("finished traces with status %q = %d, want %d", status, got, n)
		}
	}
	if got := reg.Counter("requests").Value(); got != total {
		t.Errorf("requests = %d, want %d", got, total)
	}
	st, _ := rig.b.SLOStatus()
	var events uint64
	for _, c := range st.Classes {
		events += c.FastTotal
	}
	if events != uint64(total) {
		t.Errorf("SLO events = %d, want %d (one per request)", events, total)
	}
	for k := 1; k <= 3; k++ {
		count := func(name string) int64 { return reg.Counter(fmt.Sprintf("%s_class_%d", name, k)).Value() }
		sum := count("completed") + count("dropped") + count("shed") + count("errors")
		if got := count("requests"); got != sum {
			t.Errorf("requests_class_%d = %d, but its dispositions sum to %d", k, got, sum)
		}
	}
	if got := reg.Counter("completed").Value(); got != want["ok"] {
		t.Errorf("completed = %d, want %d", got, want["ok"])
	}
	if got := reg.Counter("dropped").Value(); got != want["dropped"] {
		t.Errorf("dropped = %d, want %d", got, want["dropped"])
	}
	if got := reg.Counter("shed_total").Value(); got != want["shed"] {
		t.Errorf("shed_total = %d, want %d", got, want["shed"])
	}
	if cs, ok := rig.b.CoalesceStats(); ok && cs.Inflight != 0 {
		t.Errorf("%d coalesce flights left open", cs.Inflight)
	}
	if is, ok := rig.b.IdemStats(); ok && is.Size != int(is.Recorded) {
		t.Errorf("idempotency table holds %d entries for %d recorded outcomes: a slot was left pending", is.Size, is.Recorded)
	}
	if got := rig.b.Load().Outstanding; got != 0 {
		t.Errorf("outstanding = %d after every request finished", got)
	}
}

func mustStatus(t *testing.T, resp *Response, want Status) {
	t.Helper()
	if resp.Status != want {
		t.Fatalf("resp = %+v, want status %v", resp, want)
	}
}

// TestEveryExitIsOneDisposition drives each way a request can leave the
// broker and audits the accounting: the invariant is structural (every
// answer goes through finish), and this is the test that keeps it so.
func TestEveryExitIsOneDisposition(t *testing.T) {
	bg := context.Background()
	read := func(p string) *Request { return &Request{Payload: []byte(p), Class: qos.Class2} }
	var down atomic.Bool // flaky's switch; every case leaves it off
	flaky := &backend.FuncConnector{ServiceName: "db", DoFn: func(context.Context, []byte) ([]byte, error) {
		if down.Load() {
			return nil, errors.New("backend down")
		}
		return []byte("done"), nil
	}}
	idemOpts := []Option{WithTransactions(), WithIdempotency(16, 0)}

	cases := []struct {
		name string
		conn backend.Connector // nil: a gate connector
		opts []Option
		run  func(t *testing.T, rig *exitRig)
		want map[string]int64
	}{
		{name: "ok", conn: echoConnector("db"), want: map[string]int64{"ok": 1},
			run: func(t *testing.T, rig *exitRig) { mustStatus(t, rig.b.Handle(bg, read("q")), StatusOK) }},

		{name: "backend error", conn: flaky, want: map[string]int64{"error": 1},
			run: func(t *testing.T, rig *exitRig) {
				down.Store(true)
				defer down.Store(false)
				mustStatus(t, rig.b.Handle(bg, read("q")), StatusError)
			}},

		{name: "cache hit", conn: echoConnector("db"), opts: []Option{WithCache(16, 0)}, want: map[string]int64{"ok": 2},
			run: func(t *testing.T, rig *exitRig) {
				rig.b.Handle(bg, read("q"))
				if resp := rig.b.Handle(bg, read("q")); resp.Fidelity != qos.FidelityCached {
					t.Fatalf("resp = %+v, want a cache hit", resp)
				}
			}},

		{name: "stale serve", conn: flaky, opts: []Option{WithCache(16, time.Millisecond),
			WithResilience(resilience.Config{Retry: resilience.RetryConfig{MaxAttempts: 1}, ServeStale: true})},
			want: map[string]int64{"ok": 2},
			run: func(t *testing.T, rig *exitRig) {
				mustStatus(t, rig.b.Handle(bg, read("q")), StatusOK)
				time.Sleep(5 * time.Millisecond) // the entry expires
				down.Store(true)
				defer down.Store(false)
				if resp := rig.b.Handle(bg, read("q")); resp.Status != StatusOK || resp.Fidelity != qos.FidelityLow {
					t.Fatalf("resp = %+v, want a stale serve", resp)
				}
			}},

		{name: "idem replay", conn: echoConnector("db"), opts: idemOpts, want: map[string]int64{"ok": 2},
			run: func(t *testing.T, rig *exitRig) {
				rig.b.Handle(bg, idemReq("t1", 1, "k", "U"))
				mustStatus(t, rig.b.Handle(bg, idemReq("t1", 1, "k", "U")), StatusOK)
				if got := rig.b.Metrics().Counter("idem_hits").Value(); got != 1 {
					t.Fatalf("idem_hits = %d, want 1", got)
				}
			}},

		{name: "idem coalesce", opts: idemOpts, want: map[string]int64{"ok": 2},
			run: func(t *testing.T, rig *exitRig) {
				owner := rig.inflight(bg, idemReq("t1", 1, "k", "U"))
				dup := make(chan *Response, 1)
				go func() { dup <- rig.b.Handle(bg, idemReq("t1", 1, "k", "U")) }()
				rig.waitFor("the duplicate to join", func() bool { st, _ := rig.b.IdemStats(); return st.Coalesced == 1 })
				close(rig.g.release)
				mustStatus(t, <-owner, StatusOK)
				mustStatus(t, <-dup, StatusOK)
			}},

		{name: "idem-await error", opts: idemOpts, want: map[string]int64{"ok": 1, "error": 1},
			run: func(t *testing.T, rig *exitRig) {
				owner := rig.inflight(bg, idemReq("t1", 1, "k", "U"))
				ctx, cancel := context.WithCancel(bg)
				dup := make(chan *Response, 1)
				go func() { dup <- rig.b.Handle(ctx, idemReq("t1", 1, "k", "U")) }()
				rig.waitFor("the duplicate to join", func() bool { st, _ := rig.b.IdemStats(); return st.Coalesced == 1 })
				cancel()
				mustStatus(t, <-dup, StatusError)
				close(rig.g.release)
				mustStatus(t, <-owner, StatusOK)
			}},

		{name: "coalesced", opts: []Option{WithCoalescing()}, want: map[string]int64{"ok": 2},
			run: func(t *testing.T, rig *exitRig) {
				owner := rig.inflight(bg, read("q"))
				dup := make(chan *Response, 1)
				go func() { dup <- rig.b.Handle(bg, read("q")) }()
				waitStats(t, rig.b, 1)
				close(rig.g.release)
				mustStatus(t, <-owner, StatusOK)
				mustStatus(t, <-dup, StatusOK)
			}},

		{name: "coalesce-await error", opts: []Option{WithCoalescing()}, want: map[string]int64{"ok": 1, "error": 1},
			run: func(t *testing.T, rig *exitRig) {
				owner := rig.inflight(bg, read("q"))
				ctx, cancel := context.WithCancel(bg)
				dup := make(chan *Response, 1)
				go func() { dup <- rig.b.Handle(ctx, read("q")) }()
				waitStats(t, rig.b, 1)
				cancel()
				mustStatus(t, <-dup, StatusError)
				close(rig.g.release)
				mustStatus(t, <-owner, StatusOK)
			}},

		{name: "contract drop", conn: echoConnector("db"), opts: []Option{WithContract(qos.Class2, 0.001, 1)},
			want: map[string]int64{"ok": 1, "dropped": 1},
			run: func(t *testing.T, rig *exitRig) {
				mustStatus(t, rig.b.Handle(bg, read("a")), StatusOK)
				mustStatus(t, rig.b.Handle(bg, read("b")), StatusDropped)
			}},

		{name: "draining shed", conn: echoConnector("db"), opts: append([]Option{WithCoalescing()}, idemOpts...),
			want: map[string]int64{"shed": 2},
			run: func(t *testing.T, rig *exitRig) {
				rig.b.mu.Lock()
				rig.b.draining = true
				rig.b.mu.Unlock()
				mustStatus(t, rig.b.Handle(bg, read("q")), StatusShed)                  // owns a flight
				mustStatus(t, rig.b.Handle(bg, idemReq("t1", 1, "k", "U")), StatusShed) // owns a slot
			}},

		{name: "threshold shed", opts: []Option{WithThreshold(1, 1)}, want: map[string]int64{"ok": 1, "shed": 1},
			run: func(t *testing.T, rig *exitRig) {
				first := rig.inflight(bg, &Request{Payload: []byte("a"), Class: qos.Class1})
				mustStatus(t, rig.b.Handle(bg, &Request{Payload: []byte("b"), Class: qos.Class1}), StatusShed)
				close(rig.g.release)
				mustStatus(t, <-first, StatusOK)
			}},

		{name: "closed", conn: echoConnector("db"), opts: []Option{WithCoalescing()}, want: map[string]int64{"error": 1},
			run: func(t *testing.T, rig *exitRig) {
				rig.b.Close()
				if resp := rig.b.Handle(bg, read("q")); !errors.Is(resp.Err, ErrBrokerClosed) {
					t.Fatalf("resp = %+v, want ErrBrokerClosed", resp)
				}
			}},

		{name: "push error", conn: echoConnector("db"), opts: append([]Option{WithCoalescing()}, idemOpts...),
			want: map[string]int64{"error": 2},
			run: func(t *testing.T, rig *exitRig) {
				rig.b.queue.Close() // the window between Close's two steps
				if resp := rig.b.Handle(bg, read("q")); !errors.Is(resp.Err, qos.ErrQueueClosed) {
					t.Fatalf("resp = %+v, want ErrQueueClosed", resp)
				}
				mustStatus(t, rig.b.Handle(bg, idemReq("t1", 1, "k", "U")), StatusError)
			}},

		// Class 1 may queue for 150 ms, class 3 for 50: the first request only
		// has to reach an idle worker in time, on however busy a host.
		{name: "sojourn eviction", opts: []Option{WithWorkers(1), WithSojournBudget(50 * time.Millisecond)},
			want: map[string]int64{"ok": 1, "shed": 1},
			run: func(t *testing.T, rig *exitRig) {
				first := rig.inflight(bg, &Request{Payload: []byte("a"), Class: qos.Class1})
				queued := make(chan *Response, 1)
				go func() { queued <- rig.b.Handle(bg, &Request{Payload: []byte("b"), Class: qos.Class3}) }()
				rig.waitFor("the second request to queue", func() bool { return rig.b.queue.Len() == 1 })
				time.Sleep(60 * time.Millisecond) // past class 3's budget
				close(rig.g.release)              // the worker's next Pop sweeps it out
				mustStatus(t, <-first, StatusOK)
				mustStatus(t, <-queued, StatusShed)
				if got := rig.b.Metrics().Counter("sojourn_evictions").Value(); got != 1 {
					t.Fatalf("sojourn_evictions = %d, want 1", got)
				}
			}},

		{name: "expired in queue", opts: []Option{WithWorkers(1)}, want: map[string]int64{"ok": 1, "error": 1},
			run: func(t *testing.T, rig *exitRig) {
				first := rig.inflight(bg, read("a"))
				ctx, cancel := context.WithCancel(bg)
				queued := make(chan *Response, 1)
				go func() { queued <- rig.b.Handle(ctx, read("b")) }()
				rig.waitFor("the second request to queue", func() bool { return rig.b.queue.Len() == 1 })
				cancel()
				mustStatus(t, <-queued, StatusError) // the caller leaves; the worker accounts for it
				close(rig.g.release)
				mustStatus(t, <-first, StatusOK)
				rig.waitFor("the worker to drop the job", func() bool {
					return rig.b.Metrics().Counter("expired_in_queue").Value() == 1
				})
				if n := rig.g.calls.Load(); n != 1 {
					t.Fatalf("backend executed %d times, want 1", n)
				}
			}},

		{name: "caller cancelled", opts: []Option{WithCoalescing()}, want: map[string]int64{"error": 1},
			run: func(t *testing.T, rig *exitRig) {
				ctx, cancel := context.WithCancel(bg)
				running := rig.inflight(ctx, read("q"))
				cancel()
				if resp := <-running; !errors.Is(resp.Err, context.Canceled) {
					t.Fatalf("resp = %+v, want context.Canceled", resp)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newExitRig(t, tc.conn, tc.opts...)
			tc.run(t, rig)
			rig.audit(tc.want)
		})
	}
}

// TestHandleAllocs is the alloc-regression gate for the request path (matched
// by CI's -run 'Alloc' step): a cache hit allocates its response and nothing
// else, and a miss the job, its channel, the response and what the backend
// pool and queue need — no metric name is formatted per request.
func TestHandleAllocs(t *testing.T) {
	ctx := context.Background()
	hit := newBroker(t, echoConnector("db"), WithThreshold(64, 3), WithCache(64, 0))
	req := &Request{Payload: []byte("q"), Class: qos.Class1}
	hit.Handle(ctx, req) // warm
	if n := testing.AllocsPerRun(1000, func() { hit.Handle(ctx, req) }); n > 1 {
		t.Errorf("cache hit allocates %.1f objects/op, want ≤ 1", n)
	}
	miss := newBroker(t, echoConnector("db"), WithThreshold(64, 3))
	req = &Request{Payload: []byte("q"), Class: qos.Class1, NoCache: true}
	if n := testing.AllocsPerRun(1000, func() { miss.Handle(ctx, req) }); n > 8 {
		t.Errorf("miss allocates %.1f objects/op, want ≤ 8", n)
	}
}
