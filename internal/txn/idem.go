package txn

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/qos"
)

// Outcome is the recorded first result of a mutating access: what the broker
// answered the first time the (transaction, step, key) triple executed.
// Retried and failed-over duplicates are answered with it verbatim instead
// of re-executing the backend effect. Status is the broker's status code
// kept as a plain int so the table stays import-cycle-free.
type Outcome struct {
	Status   int
	Fidelity qos.Fidelity
	Payload  []byte
}

// IdemKey builds the composite idempotency-table key for one access. The
// unit separator keeps "txn-1"/step 2 distinct from "txn-12"/step... etc.
func IdemKey(txnID string, step int, key string) string {
	return txnID + "\x1f" + strconv.Itoa(step) + "\x1f" + key
}

// idemState is an entry's lifecycle phase.
type idemState uint8

const (
	idemPending   idemState = iota + 1 // first execution in flight
	idemDone                           // owner settled with an outcome
	idemCancelled                      // owner settled without one
)

// idemEntry is one table slot. ready is closed when the entry leaves the
// pending state so coalesced duplicates wake up; state and out are not
// written after that, so waiters read them without the table lock. The two
// tickets every arrival is handed live in the entry, so joining a flight
// allocates nothing.
type idemEntry struct {
	t     *IdemTable
	key   string
	state idemState
	out   Outcome
	ready chan struct{}
	at    time.Time // record time, drives TTL expiry and FIFO eviction

	owner, waiter Ticket
}

// IdemStats is the table's point-in-time accounting for /txnz and tests.
type IdemStats struct {
	Size      int
	Capacity  int
	TTL       time.Duration
	Hits      int64 // duplicates answered from a recorded outcome
	Flights   int64 // first arrivals handed the owner ticket
	Coalesced int64 // duplicates that waited on an in-flight first execution
	Shared    int64 // coalesced duplicates answered with the owner's outcome
	Recorded  int64 // outcomes recorded by Complete
	Restored  int64 // outcomes re-armed from a journal
	Evicted   int64 // entries removed by capacity or TTL pressure
}

// IdemTable is the brokers' single-flight table: the first arrival for a key
// owns its execution, later arrivals wait for the owner to settle, and the
// owner decides what the waiters — and the future — get to see:
//
//   - Complete hands the outcome to the waiters and remembers it, bounded by
//     capacity and TTL. This is the idempotency table proper: a map from
//     (transaction, step, idempotency key) to the recorded first outcome of
//     that access, which gives the retry/failover path exactly-once
//     *effects* — the wire client retransmits lost datagrams and the
//     frontend pool fails requests over to other brokers, so a mutating
//     access can arrive more than once, and every arrival after the first is
//     answered from the table.
//   - Share hands the outcome to the waiters and forgets it: the broker's
//     coalescing of identical in-flight reads, whose memory is the result
//     cache.
//   - Cancel settles with nothing, and the waiters run for real.
//
// A table may be shared by several brokers (the paper's brokers "exchange
// state information to ensure that transactions involving different backend
// servers are properly protected"); sharing is what covers the pool-failover
// path where attempt one executed but its broker crashed before answering.
//
// IdemTable is safe for concurrent use. Use NewIdemTable.
type IdemTable struct {
	mu      sync.Mutex
	entries map[string]*idemEntry
	order   []string // recorded keys, oldest first; lazily compacted against entries
	cap     int
	ttl     time.Duration
	now     func() time.Time

	onRecord func(key string, out Outcome)

	hits      int64
	flights   int64
	coalesced int64
	recorded  int64
	restored  int64
	evicted   int64
	shared    atomic.Int64 // bumped by waiters, outside mu
}

// DefaultIdemCapacity bounds the table when the caller passes capacity ≤ 0.
const DefaultIdemCapacity = 4096

// NewIdemTable builds a table holding at most capacity recorded outcomes
// (≤ 0 selects DefaultIdemCapacity), each kept for ttl after insertion
// (ttl ≤ 0 means entries never expire — capacity still bounds the table).
func NewIdemTable(capacity int, ttl time.Duration) *IdemTable {
	if capacity <= 0 {
		capacity = DefaultIdemCapacity
	}
	return &IdemTable{
		entries: make(map[string]*idemEntry),
		cap:     capacity,
		ttl:     ttl,
		now:     time.Now,
	}
}

// SetClock overrides the table's time source (deterministic tests).
func (t *IdemTable) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// OnRecord registers a callback invoked (outside table locks) for every
// outcome recorded via Complete — the journal append hook. Restored entries
// do not fire it (they came *from* the journal).
func (t *IdemTable) OnRecord(fn func(key string, out Outcome)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onRecord = fn
}

// Ticket is the caller's handle on one Acquire that did not hit a recorded
// outcome. The owner (first arrival) must settle with one of Complete, Share
// or Cancel — the first call wins, later ones are no-ops; coalesced
// duplicates call Await.
type Ticket struct {
	e     *idemEntry
	owner bool
}

// Owner reports whether this caller owns the first execution.
func (tk *Ticket) Owner() bool { return tk.owner }

// Acquire looks up one access. Three outcomes:
//
//   - the access already has a recorded outcome → (outcome, true, nil):
//     answer the caller with it, do not execute;
//   - first arrival → (zero, false, ticket) with ticket.Owner() true:
//     execute, then settle the ticket;
//   - duplicate of an in-flight access → (zero, false, ticket) with Owner()
//     false: ticket.Await(ctx) blocks for the first execution's outcome.
func (t *IdemTable) Acquire(key string) (Outcome, bool, *Ticket) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		if e.state == idemPending {
			t.coalesced++
			return Outcome{}, false, &e.waiter
		}
		if !t.expiredLocked(e, t.now()) {
			t.hits++
			return e.out, true, nil
		}
		// Recorded but expired: the window closed; treat as first arrival.
	}
	e := &idemEntry{t: t, key: key, state: idemPending, ready: make(chan struct{})}
	e.owner = Ticket{e: e, owner: true}
	e.waiter = Ticket{e: e}
	t.entries[key] = e
	t.flights++
	return Outcome{}, false, &e.owner
}

// Await blocks a coalesced duplicate until the first execution settles or
// ctx is done. ok is true when the owner produced an outcome — false means
// it did not (it was shed or failed before the effect), and the caller
// should execute normally.
func (tk *Ticket) Await(ctx context.Context) (Outcome, bool, error) {
	e := tk.e
	select {
	case <-e.ready:
	case <-ctx.Done():
		return Outcome{}, false, ctx.Err()
	}
	if e.state != idemDone {
		return Outcome{}, false, nil
	}
	e.t.shared.Add(1)
	return e.out, true, nil
}

// Complete records the first outcome for the ticket's access and wakes every
// coalesced duplicate with it.
func (tk *Ticket) Complete(out Outcome) { tk.settle(idemDone, out, true) }

// Share wakes every coalesced duplicate with out but records nothing: the
// next arrival for the key is a first arrival again.
func (tk *Ticket) Share(out Outcome) { tk.settle(idemDone, out, false) }

// Cancel abandons the ticket without an outcome: the access did not execute
// (shed, dropped, backend error before the effect), so a retry is allowed to
// run for real. Coalesced duplicates wake with ok=false.
func (tk *Ticket) Cancel() { tk.settle(idemCancelled, Outcome{}, false) }

// settle moves an owned pending entry to its final state. An entry that is
// no longer pending — settled already, or overtaken by Restore — is left
// alone, which is what makes settling idempotent; a nil ticket (nothing
// owned) settles nothing.
func (tk *Ticket) settle(state idemState, out Outcome, record bool) {
	if tk == nil || !tk.owner {
		return
	}
	e := tk.e
	t := e.t
	t.mu.Lock()
	if e.state != idemPending {
		t.mu.Unlock()
		return
	}
	e.state, e.out = state, out
	var fn func(string, Outcome)
	if record {
		t.recordLocked(e)
		t.recorded++
		fn = t.onRecord
	} else {
		delete(t.entries, e.key)
	}
	close(e.ready)
	t.mu.Unlock()
	if fn != nil {
		fn(e.key, out)
	}
}

// Restore re-arms a recorded outcome from a journal (brokerd restart).
// Idempotent: a later record for the same key wins, matching journal replay
// order. Restored entries do not fire OnRecord. An in-flight first execution
// for the key is overtaken: its waiters wake with the restored outcome.
func (t *IdemTable) Restore(key string, out Outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok && e.state == idemPending {
		e.state, e.out = idemDone, out
		close(e.ready)
	}
	ready := make(chan struct{})
	close(ready)
	e := &idemEntry{t: t, key: key, state: idemDone, out: out, ready: ready}
	t.entries[key] = e
	t.recordLocked(e)
	t.restored++
}

// Lookup returns the recorded outcome for key, if any (and not expired).
func (t *IdemTable) Lookup(key string) (Outcome, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	if !ok || e.state != idemDone || t.expiredLocked(e, t.now()) {
		return Outcome{}, false
	}
	return e.out, true
}

// Len returns the number of live entries (pending + recorded).
func (t *IdemTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Stats returns the table's accounting.
func (t *IdemTable) Stats() IdemStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return IdemStats{
		Size:      len(t.entries),
		Capacity:  t.cap,
		TTL:       t.ttl,
		Hits:      t.hits,
		Flights:   t.flights,
		Coalesced: t.coalesced,
		Shared:    t.shared.Load(),
		Recorded:  t.recorded,
		Restored:  t.restored,
		Evicted:   t.evicted,
	}
}

// expiredLocked reports whether a done entry has outlived the TTL.
func (t *IdemTable) expiredLocked(e *idemEntry, now time.Time) bool {
	return t.ttl > 0 && now.Sub(e.at) > t.ttl
}

// recordLocked stamps a done entry that is in the table, queues it for FIFO
// eviction and restores the capacity bound. Caller holds t.mu.
func (t *IdemTable) recordLocked(e *idemEntry) {
	e.at = t.now()
	t.order = append(t.order, e.key)
	t.evictOverCapLocked()
}

// evictOverCapLocked sheds expired and oldest *recorded* entries until the
// table fits its capacity. Pending entries are never evicted — they are
// bounded by the brokers' outstanding work, and evicting one would strand
// its coalesced waiters. Caller holds t.mu.
func (t *IdemTable) evictOverCapLocked() {
	now := t.now()
	// Drop expired recorded entries first, regardless of capacity pressure.
	if t.ttl > 0 && len(t.entries) > t.cap/2 {
		for key, e := range t.entries {
			if e.state == idemDone && t.expiredLocked(e, now) {
				delete(t.entries, key)
				t.evicted++
			}
		}
	}
	// FIFO over record order: evict the oldest recorded entries while over
	// capacity, and drop the slots of entries that are already gone once
	// they outnumber the live set enough to matter.
	over := len(t.entries) > t.cap
	if !over && len(t.order) < 2*len(t.entries)+16 {
		return
	}
	kept := t.order[:0]
	for _, key := range t.order {
		e, ok := t.entries[key]
		if !ok || e.state != idemDone {
			continue
		}
		if len(t.entries) > t.cap {
			delete(t.entries, key)
			t.evicted++
			continue
		}
		kept = append(kept, key)
	}
	t.order = kept
}
