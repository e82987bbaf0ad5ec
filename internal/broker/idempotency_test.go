package broker

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/fleet"
	"servicebroker/internal/qos"
	"servicebroker/internal/txn"
)

// countingConnector counts executed effects — the ground truth for
// exactly-once assertions.
func countingConnector(name string, executions *atomic.Int64) backend.Connector {
	return &backend.FuncConnector{
		ServiceName: name,
		DoFn: func(_ context.Context, payload []byte) ([]byte, error) {
			n := executions.Add(1)
			return []byte(fmt.Sprintf("effect %d: %s", n, payload)), nil
		},
	}
}

func idemReq(txnID string, step int, key, payload string) *Request {
	return &Request{
		Payload: []byte(payload),
		Class:   1,
		TxnID:   txnID,
		TxnStep: step,
		IdemKey: key,
	}
}

func TestIdempotentReplayReturnsFirstOutcome(t *testing.T) {
	var executions atomic.Int64
	b := newBroker(t, countingConnector("db", &executions),
		WithTransactions(), WithIdempotency(64, 0))

	first := b.Handle(context.Background(), idemReq("t1", 2, "charge", "UPDATE ..."))
	if first.Status != StatusOK || first.Fidelity != qos.FidelityFull {
		t.Fatalf("first execution: %+v", first)
	}
	// Duplicate delivery (retransmission or failover re-send): same triple.
	second := b.Handle(context.Background(), idemReq("t1", 2, "charge", "UPDATE ..."))
	if second.Status != StatusOK {
		t.Fatalf("replay: %+v", second)
	}
	if string(second.Payload) != string(first.Payload) {
		t.Fatalf("replayed payload %q != first %q", second.Payload, first.Payload)
	}
	if executions.Load() != 1 {
		t.Fatalf("backend executed %d times, want exactly 1", executions.Load())
	}
	if b.Metrics().Counter("idem_hits").Value() != 1 {
		t.Fatal("idem_hits not counted")
	}
	// A different access key in the same step is a different effect.
	b.Handle(context.Background(), idemReq("t1", 2, "mail-receipt", "SEND ..."))
	if executions.Load() != 2 {
		t.Fatalf("distinct key executed %d times total, want 2", executions.Load())
	}
}

// TestForgottenOutcomeCountedOnMetrics: past capacity the oldest outcome is
// forgotten, its duplicate re-executes, and idem_evicted_live_total says so.
func TestForgottenOutcomeCountedOnMetrics(t *testing.T) {
	var executions atomic.Int64
	b := newBroker(t, countingConnector("db", &executions),
		WithTransactions(), WithIdempotency(2, 0))
	for _, key := range []string{"a", "b", "c", "c"} {
		b.Handle(context.Background(), idemReq("t1", 2, key, "UPDATE ..."))
	}
	if n := b.Metrics().Counter("idem_evicted_live_total").Value(); n != 1 || executions.Load() != 3 {
		t.Fatalf("idem_evicted_live_total = %d after %d executions, want 1 after 3", n, executions.Load())
	}
	b.Handle(context.Background(), idemReq("t1", 2, "a", "UPDATE ..."))
	if st, _ := b.IdemStats(); executions.Load() != 4 || st.Evicted != 2 {
		t.Fatalf("forgotten outcome: %d executions, evicted %d; want 4 and 2", executions.Load(), st.Evicted)
	}
}

func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	var executions atomic.Int64
	slow := &backend.FuncConnector{
		ServiceName: "db",
		DoFn: func(context.Context, []byte) ([]byte, error) {
			executions.Add(1)
			time.Sleep(30 * time.Millisecond)
			return []byte("done"), nil
		},
	}
	b := newBroker(t, slow, WithTransactions(), WithIdempotency(64, 0), WithWorkers(8))

	const dups = 8
	var wg sync.WaitGroup
	responses := make([]*Response, dups)
	wg.Add(dups)
	for i := 0; i < dups; i++ {
		go func(i int) {
			defer wg.Done()
			responses[i] = b.Handle(context.Background(), idemReq("t1", 1, "hold", "UPDATE ..."))
		}(i)
	}
	wg.Wait()
	if executions.Load() != 1 {
		t.Fatalf("concurrent duplicates executed %d times, want 1", executions.Load())
	}
	for i, r := range responses {
		if r.Status != StatusOK || string(r.Payload) != "done" {
			t.Fatalf("duplicate %d: %+v", i, r)
		}
	}
	if b.Metrics().Counter("idem_coalesced").Value() != dups-1 {
		t.Fatalf("idem_coalesced = %d, want %d",
			b.Metrics().Counter("idem_coalesced").Value(), dups-1)
	}
}

// A failed first execution must not poison the key: the retry runs for real.
func TestFailedExecutionDoesNotRecord(t *testing.T) {
	var calls atomic.Int64
	flaky := &backend.FuncConnector{
		ServiceName: "db",
		DoFn: func(context.Context, []byte) ([]byte, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("backend down")
			}
			return []byte("done"), nil
		},
	}
	b := newBroker(t, flaky, WithTransactions(), WithIdempotency(64, 0))

	if r := b.Handle(context.Background(), idemReq("t1", 1, "hold", "U")); r.Status != StatusError {
		t.Fatalf("first attempt: %+v", r)
	}
	r := b.Handle(context.Background(), idemReq("t1", 1, "hold", "U"))
	if r.Status != StatusOK || string(r.Payload) != "done" {
		t.Fatalf("retry after failure: %+v", r)
	}
	if calls.Load() != 2 {
		t.Fatalf("backend called %d times, want 2", calls.Load())
	}
}

// Idempotency-keyed requests are mutations: they must neither be answered
// from the result cache nor populate it.
func TestIdemKeyedRequestsBypassCache(t *testing.T) {
	var executions atomic.Int64
	b := newBroker(t, countingConnector("db", &executions),
		WithTransactions(), WithIdempotency(64, 0), WithCache(16, 0))

	// Prime the cache with a plain read of the same payload.
	b.Handle(context.Background(), &Request{Payload: []byte("Q"), Class: 1})
	if executions.Load() != 1 {
		t.Fatal("priming read did not execute")
	}
	// The keyed mutation must reach the backend despite the cached entry.
	r := b.Handle(context.Background(), idemReq("t1", 1, "k", "Q"))
	if r.Fidelity != qos.FidelityFull {
		t.Fatalf("mutation served at fidelity %v from cache", r.Fidelity)
	}
	if executions.Load() != 2 {
		t.Fatalf("mutation did not execute: %d backend calls", executions.Load())
	}
	// And its outcome must not overwrite the cached read result.
	r = b.Handle(context.Background(), &Request{Payload: []byte("Q"), Class: 1})
	if r.Fidelity != qos.FidelityCached || string(r.Payload) != "effect 1: Q" {
		t.Fatalf("cache polluted by mutation outcome: %+v", r)
	}
}

// A shed keyed request releases its slot: nothing is recorded, and the retry
// executes when capacity returns.
func TestShedKeyedRequestReleasesSlot(t *testing.T) {
	var executions atomic.Int64
	b := newBroker(t, countingConnector("db", &executions),
		WithTransactions(), WithIdempotency(64, 0))
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	if r := b.Handle(context.Background(), idemReq("t1", 1, "hold", "U")); r.Status != StatusShed {
		t.Fatalf("draining broker answered %+v", r)
	}
	b.mu.Lock()
	b.draining = false
	b.mu.Unlock()
	r := b.Handle(context.Background(), idemReq("t1", 1, "hold", "U"))
	if r.Status != StatusOK || executions.Load() != 1 {
		t.Fatalf("retry after shed: %+v, %d executions", r, executions.Load())
	}
}

// The txn_abandoned_total counter: the TTL sweep of a broker's own tracker
// aborts idle transactions and the broker counts them. A broker on a shared
// tracker leaves its abandon hook to the tracker's owner.
func TestBrokerAbandonsIdleTransactions(t *testing.T) {
	b := newBroker(t, echoConnector("db"), WithTransactions())
	b.Tracker().SetTTL(20 * time.Millisecond)
	b.Handle(context.Background(), &Request{Payload: []byte("Q"), Class: 1, TxnID: "t1", TxnStep: 1})
	if b.Tracker().ActiveCount() != 1 {
		t.Fatal("transaction not active")
	}
	time.Sleep(30 * time.Millisecond)
	b.Tracker().Sweep()
	if b.Tracker().ActiveCount() != 0 {
		t.Fatal("idle transaction survived the sweep")
	}
	if b.Metrics().Counter("txn_abandoned_total").Value() != 1 {
		t.Fatal("txn_abandoned_total not counted")
	}

	var owned int
	shared := txn.NewTracker()
	shared.SetTTL(20 * time.Millisecond)
	shared.OnAbandon(func(txn.State) { owned++ })
	sb := newBroker(t, echoConnector("db"), WithTransactions(shared))
	sb.Handle(context.Background(), &Request{Payload: []byte("Q"), Class: 1, TxnID: "t2", TxnStep: 1})
	time.Sleep(30 * time.Millisecond)
	shared.Sweep()
	if owned != 1 {
		t.Fatalf("owner's abandon hook ran %d times, want 1", owned)
	}
}

// A journal append that fails leaves the outcome standing in memory and is
// counted and put on the fleet timeline.
func TestJournalAppendErrorCountedAndPublished(t *testing.T) {
	var executions atomic.Int64
	events := fleet.NewLog(0, nil)
	b := newBroker(t, countingConnector("db", &executions),
		WithTransactions(), WithIdempotency(64, 0), WithFleetEvents(events))
	if _, err := b.OpenJournal(filepath.Join(t.TempDir(), "journal")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenJournal(filepath.Join(t.TempDir(), "again")); err == nil {
		t.Fatal("second journal accepted")
	}
	// The file goes away underneath the broker.
	b.journal.Close()

	r1 := b.Handle(context.Background(), idemReq("t1", 1, "hold", "UPDATE ..."))
	r2 := b.Handle(context.Background(), idemReq("t1", 1, "hold", "UPDATE ..."))
	if r1.Status != StatusOK || string(r2.Payload) != string(r1.Payload) || executions.Load() != 1 {
		t.Fatalf("outcome lost with the journal: %+v / %+v, %d executions", r1, r2, executions.Load())
	}
	if got := b.Metrics().Counter("txn_journal_errors_total").Value(); got != 1 {
		t.Fatalf("txn_journal_errors_total = %d, want 1", got)
	}
	evs := events.Snapshot(0)
	if len(evs) != 1 || evs[0].Kind != fleet.KindJournalError || evs[0].Service != "db" ||
		!strings.Contains(evs[0].Detail, "journal closed") {
		t.Fatalf("events = %+v, want one journal_error for db", evs)
	}
}

func TestOpenJournalRequiresIdempotency(t *testing.T) {
	b := newBroker(t, echoConnector("db"), WithTransactions())
	if _, err := b.OpenJournal(filepath.Join(t.TempDir(), "journal")); err == nil {
		t.Fatal("journal without an idempotency table accepted")
	}
}
