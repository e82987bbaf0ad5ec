package broker

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/qos"
)

// servedOrder builds a one-worker, three-class broker whose backend records
// the order it is asked things in. The worker is held on a first request
// while the test queues more; release lets everything run and returns the
// payloads in the order the backend saw them.
func servedOrder(t *testing.T, opts ...Option) (b *Broker, queue func(*Request), release func() []string) {
	t.Helper()
	var (
		mu     sync.Mutex
		served []string
		wg     sync.WaitGroup
		open   sync.Once
	)
	started, gate := make(chan struct{}, 1), make(chan struct{})
	conn := &backend.FuncConnector{ServiceName: "db", DoFn: func(_ context.Context, p []byte) ([]byte, error) {
		mu.Lock()
		served = append(served, string(p))
		mu.Unlock()
		if string(p) == "hold" {
			started <- struct{}{}
			<-gate
		}
		return p, nil
	}}
	b = newBroker(t, conn, append([]Option{WithThreshold(20, 3), WithWorkers(1)}, opts...)...)
	t.Cleanup(func() { open.Do(func() { close(gate) }) }) // before Close, on a failed run too
	handle := func(req *Request) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := b.Handle(context.Background(), req); resp.Status != StatusOK {
				t.Errorf("%s: %+v", req.Payload, resp)
			}
		}()
	}
	handle(&Request{Payload: []byte("hold"), Class: qos.Class1})
	<-started
	queue = func(req *Request) {
		t.Helper()
		want := b.Load().QueueLen + 1
		handle(req)
		for deadline := time.Now().Add(5 * time.Second); b.Load().QueueLen != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s was never queued", req.Payload)
			}
		}
	}
	release = func() []string {
		open.Do(func() { close(gate) })
		wg.Wait()
		return served
	}
	return b, queue, release
}

// A class above the policy's class count is the lowest class — in the queue
// too: it waits its turn among the class-3 requests, not behind all of them.
func TestClassAboveCountIsQueuedAsLowestClass(t *testing.T) {
	b, queue, release := servedOrder(t)
	queue(&Request{Payload: []byte("seven"), Class: 7})
	queue(&Request{Payload: []byte("three"), Class: qos.Class3})
	if got, want := release(), []string{"hold", "seven", "three"}; !slices.Equal(got, want) {
		t.Fatalf("served %v, want %v (arrival order within the lowest class)", got, want)
	}
	if got := b.Metrics().Counter("completed_class_3").Value(); got != 2 {
		t.Fatalf("completed_class_3 = %d, want both requests", got)
	}
}

// The class is settled before escalation: class 7 is class 3, and step 2
// raises that to class 2 — behind an earlier class-2 request, ahead of an
// earlier class-3 one.
func TestClassAboveCountEscalatesFromLowestClass(t *testing.T) {
	b, queue, release := servedOrder(t, WithTransactions())
	queue(&Request{Payload: []byte("three"), Class: qos.Class3})
	queue(&Request{Payload: []byte("two"), Class: qos.Class2})
	queue(&Request{Payload: []byte("txn"), Class: 7, TxnID: "t", TxnStep: 2})
	if got, want := release(), []string{"hold", "two", "txn", "three"}; !slices.Equal(got, want) {
		t.Fatalf("served %v, want %v (the step-2 request queued as class 2)", got, want)
	}
	if got := b.Metrics().Counter("completed_class_2").Value(); got != 2 {
		t.Fatalf("completed_class_2 = %d, want the class-2 and the escalated request", got)
	}
}

// The contract of the lowest class covers every request settled into it, and
// the per-class ratio exists only for classes the policy has.
func TestSettledClassMeetsContractAndCounters(t *testing.T) {
	b := newBroker(t, echoConnector("db"), WithThreshold(20, 3), WithContract(qos.Class3, 0.001, 1))
	bg := context.Background()
	if resp := b.Handle(bg, &Request{Payload: []byte("a"), Class: 7}); resp.Status != StatusOK {
		t.Fatalf("first request within the burst: %+v", resp)
	}
	if resp := b.Handle(bg, &Request{Payload: []byte("b")}); resp.Status != StatusDropped {
		t.Fatalf("class 0 after class 7 spent class 3's burst: %+v, want dropped", resp)
	}
	if ratio, ok := b.RefusedRatio(qos.Class3); !ok || ratio != 0.5 {
		t.Fatalf("RefusedRatio(3) = %v, %v, want 0.5", ratio, ok)
	}
	for _, c := range []qos.Class{-1, 0, 4, 7} {
		if _, ok := b.RefusedRatio(c); ok {
			t.Fatalf("RefusedRatio(%d) reports a class the policy does not have", int(c))
		}
	}
}
