package servicebroker

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/qos"
	"servicebroker/internal/txn"
)

// txnMember is one broker-pool replica for the transaction chaos test: its
// gateway socket can be crashed and rebound on a pinned address while the
// broker behind it (and the tracker and idempotency table every member's
// gateway reaches) survives — the mid-transaction crash+failover case.
type txnMember struct {
	t      *testing.T
	broker *broker.Broker
	addr   string

	mu sync.Mutex
	gw *broker.Gateway
}

func newTxnMember(t *testing.T, service string, b *broker.Broker) *txnMember {
	t.Helper()
	gw, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{service: b})
	if err != nil {
		t.Fatal(err)
	}
	m := &txnMember{t: t, broker: b, gw: gw, addr: gw.Addr().String()}
	t.Cleanup(m.close)
	return m
}

func (m *txnMember) crash() {
	m.mu.Lock()
	gw := m.gw
	m.gw = nil
	m.mu.Unlock()
	if gw != nil {
		gw.Close()
	}
}

func (m *txnMember) restart(service string) {
	m.t.Helper()
	var gw *broker.Gateway
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		gw, err = broker.NewGateway(m.addr, map[string]*broker.Broker{service: m.broker})
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		m.t.Fatalf("rebind %s: %v", m.addr, err)
	}
	m.mu.Lock()
	m.gw = gw
	m.mu.Unlock()
}

func (m *txnMember) close() {
	m.mu.Lock()
	gw := m.gw
	m.gw = nil
	m.mu.Unlock()
	if gw != nil {
		gw.Close()
	}
}

// TestTxnIntegrityChaos proves exactly-once transaction effects end to end
// through real sockets: an HTTP front end routes tagged requests (txn, step,
// idem query parameters) across a two-member broker pool whose gateways front
// one broker: one transaction tracker and one journal-backed idempotency
// table over one effect-counting warehouse. The test injects duplicate delivery, a
// mid-step-2 member crash with failover, and a broker restart that re-arms
// its idempotency state from the journal — and at the end the
// backend-observed mutation count equals the logically issued count, every
// aborted transaction's compensations ran in reverse order, and no inventory
// hold is orphaned.
//
// This is the txn chaos-soak target: CI runs it under -race repeatedly.
func TestTxnIntegrityChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	const service = "supply"
	ctx := context.Background()

	// One warehouse, one tracker, one idempotency table, reached through
	// both pool members' gateways. Recorded outcomes append to a journal for
	// the restart phase.
	store := &backend.EffectConnector{ServiceName: service}
	tracker := txn.NewTracker()
	journalPath := filepath.Join(t.TempDir(), "supply.journal")
	pooled, err := broker.New(store,
		broker.WithThreshold(64, 4),
		broker.WithTransactions(tracker),
		broker.WithIdempotency(1024, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pooled.Close() })
	if _, err := pooled.OpenJournal(journalPath); err != nil {
		t.Fatal(err)
	}
	members := []*txnMember{
		newTxnMember(t, service, pooled),
		newTxnMember(t, service, pooled),
	}

	fe, err := frontend.NewDistributed("127.0.0.1:0",
		members[0].addr+"|"+members[1].addr,
		[]frontend.Route{{Pattern: "/supply", Service: service, DefaultClass: qos.Class3}})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	cli := httpserver.NewClient(fe.Addr(), httpserver.WithPersistent(1))
	defer cli.Close()

	do := func(q map[string]string) *httpserver.Response {
		t.Helper()
		resp, err := cli.Get("/supply", q)
		if err != nil {
			t.Fatalf("GET %v: %v", q, err)
		}
		return resp
	}
	mustOK := func(q map[string]string) *httpserver.Response {
		t.Helper()
		resp := do(q)
		if resp.Status != 200 || resp.Header["x-broker-status"] != "ok" {
			t.Fatalf("GET %v = %d %s %q, want 200 ok",
				q, resp.Status, resp.Header["x-broker-status"], resp.Body)
		}
		return resp
	}
	step := func(txnID string, n int, cmd, idem string) map[string]string {
		q := map[string]string{"q": cmd, "txn": txnID, "step": fmt.Sprint(n)}
		if idem != "" {
			q["idem"] = idem
		}
		return q
	}

	// Compensation bookkeeping: every hold registers a release plus an audit
	// void, so an abort must run them in reverse registration order.
	var compMu sync.Mutex
	compRan := map[string][]string{}
	releaseHold := func(txnID, sku string) func(context.Context) error {
		return func(ctx context.Context) error {
			s, err := store.Connect(ctx)
			if err != nil {
				return err
			}
			defer s.Close()
			if _, err := s.Do(ctx, []byte("RELEASE "+sku+" 1")); err != nil {
				return err
			}
			compMu.Lock()
			compRan[txnID] = append(compRan[txnID], "release-hold")
			compMu.Unlock()
			return nil
		}
	}
	voidAudit := func(txnID string) func(context.Context) error {
		return func(context.Context) error {
			compMu.Lock()
			compRan[txnID] = append(compRan[txnID], "void-audit")
			compMu.Unlock()
			return nil
		}
	}

	var logical int64 // mutations logically issued (duplicates excluded)

	// Phase 1 — six purchase sagas with duplicate delivery of every hold.
	// Even transactions commit, odd ones abort and must compensate.
	const sagas = 6
	for i := 0; i < sagas; i++ {
		txnID := fmt.Sprintf("purchase-%d", i)
		sku := fmt.Sprintf("sku-%d", i)
		mustOK(step(txnID, 1, "GET "+sku, "")) // read-only browse
		// The hold is delivered twice — a client retransmit. Exactly one
		// execution may reach the warehouse.
		first := mustOK(step(txnID, 2, "HOLD "+sku+" 1", "hold"))
		second := mustOK(step(txnID, 2, "HOLD "+sku+" 1", "hold"))
		if string(first.Body) != string(second.Body) {
			t.Fatalf("duplicate hold diverged: %q vs %q", first.Body, second.Body)
		}
		logical++
		if err := tracker.RegisterCompensation(txnID, 2, "void-audit", voidAudit(txnID)); err != nil {
			t.Fatal(err)
		}
		if err := tracker.RegisterCompensation(txnID, 2, "release-hold", releaseHold(txnID, sku)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			mustOK(step(txnID, 3, "PURCHASE "+sku+" 1", "commit"))
			logical++
			if err := tracker.Complete(txnID); err != nil {
				t.Fatal(err)
			}
		} else {
			report, err := tracker.AbortContext(ctx, txnID)
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Ran) != 2 || report.Failed != 0 {
				t.Fatalf("abort %s ran %d compensations (%d failed), want 2/0", txnID, len(report.Ran), report.Failed)
			}
			logical++ // the compensating release
			compMu.Lock()
			order := append([]string(nil), compRan[txnID]...)
			compMu.Unlock()
			// Registered void-audit then release-hold; reverse order runs
			// the release first.
			if len(order) != 2 || order[0] != "release-hold" || order[1] != "void-audit" {
				t.Fatalf("abort %s compensation order = %v, want [release-hold void-audit]", txnID, order)
			}
		}
	}

	// Phase 2 — crash mid-step-2 with failover. The hold executes, the
	// member pool crashes one replica, and the duplicate is re-delivered:
	// the pool must fail over (late transaction steps try every member) and
	// the idempotency table must replay, not re-execute.
	const crashTxn, crashSKU = "purchase-crash", "sku-crash"
	mustOK(step(crashTxn, 1, "GET "+crashSKU, ""))
	first := mustOK(step(crashTxn, 2, "HOLD "+crashSKU+" 1", "hold"))
	logical++
	mutationsBefore := store.Mutations()
	members[0].crash()
	redelivered := mustOK(step(crashTxn, 2, "HOLD "+crashSKU+" 1", "hold"))
	if string(redelivered.Body) != string(first.Body) {
		t.Fatalf("post-crash duplicate diverged: %q vs %q", redelivered.Body, first.Body)
	}
	if got := store.Mutations(); got != mutationsBefore {
		t.Fatalf("post-crash duplicate re-executed: mutations %d -> %d", mutationsBefore, got)
	}
	if err := tracker.RegisterCompensation(crashTxn, 2, "release-hold", releaseHold(crashTxn, crashSKU)); err != nil {
		t.Fatal(err)
	}
	// Step 3 commits through the surviving member (step >= 2 is premium, so
	// the pool keeps trying members until one answers).
	mustOK(step(crashTxn, 3, "PURCHASE "+crashSKU+" 1", "commit"))
	logical++
	if err := tracker.Complete(crashTxn); err != nil {
		t.Fatal(err)
	}
	members[0].restart(service)

	// Phase 3 — crash-safe recovery: a freshly started broker restores the
	// journal and answers a replayed idempotency key without touching the
	// backend, through the same OpenJournal brokerd -txn-journal calls.
	restarted, err := broker.New(store,
		broker.WithThreshold(64, 4),
		broker.WithTransactions(),
		broker.WithIdempotency(1024, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	n, err := restarted.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("journal restored 0 outcomes")
	}
	mutationsBefore = store.Mutations()
	replay := restarted.Handle(ctx, &broker.Request{
		Payload: []byte("HOLD " + crashSKU + " 1"), Class: qos.Class3,
		TxnID: crashTxn, TxnStep: 2, IdemKey: "hold", NoCache: true,
	})
	if replay.Status != broker.StatusOK {
		t.Fatalf("restarted broker replay = %v (%v)", replay.Status, replay.Err)
	}
	if string(replay.Payload) != string(first.Body) {
		t.Fatalf("restarted broker replay diverged: %q vs %q", replay.Payload, first.Body)
	}
	if got := store.Mutations(); got != mutationsBefore {
		t.Fatalf("restarted broker re-executed a journaled outcome: mutations %d -> %d", mutationsBefore, got)
	}

	// Final accounting — the exactly-once ledger. Every hold, purchase, and
	// compensating release executed exactly once despite duplicates, a
	// crash, a failover, and a restart; and no hold is orphaned.
	if got := store.Mutations(); got != logical {
		t.Fatalf("backend executed %d mutations for %d logically issued", got, logical)
	}
	if got := store.TotalHolds(); got != 0 {
		t.Fatalf("orphaned holds: %d", got)
	}
	if got := pooled.Metrics().Counter("txn_journal_errors_total").Value(); got != 0 {
		t.Fatalf("%d journal appends failed", got)
	}
	if !strings.Contains(string(first.Body), "hold ok") {
		t.Fatalf("unexpected hold response body: %q", first.Body)
	}
}
