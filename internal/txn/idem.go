package txn

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/clock"
	"servicebroker/internal/metrics"
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

// idemEntry is one table slot. ready is made by the first coalesced
// duplicate, under the table lock, and closed when the entry leaves the
// pending state so the duplicates wake up; an entry nobody waited on never
// has one. state and out are not written after that, so waiters read them
// without the table lock. The two tickets every arrival is handed live in
// the entry, so joining a flight allocates nothing.
type idemEntry struct {
	t     *IdemTable
	key   string
	state idemState
	out   Outcome
	ready chan struct{} // nil until someone waits
	at    time.Time     // record time, drives TTL expiry

	owner, waiter Ticket
}

// IdemStats is the table's point-in-time accounting for /txnz and tests.
type IdemStats struct {
	Size      int // pending flights plus recorded outcomes
	Capacity  int
	TTL       time.Duration
	Hits      int64 // duplicates answered from a recorded outcome
	Flights   int64 // first arrivals handed the owner ticket
	Coalesced int64 // duplicates that waited on an in-flight first execution
	Shared    int64 // coalesced duplicates answered with the owner's outcome
	Recorded  int64 // outcomes recorded by Complete
	Restored  int64 // outcomes re-armed from a journal
	Expired   int64 // recorded outcomes that outlived the TTL
	Evicted   int64 // live outcomes forgotten to keep the capacity bound
	// Outcomes a Restore pushed out at capacity: a journal replay re-enacts
	// evictions its previous life already counted, so they are not Evicted.
	ReplayEvicted int64
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
// IdemTable is safe for concurrent use. Use NewIdemTable.
type IdemTable struct {
	mu      sync.Mutex
	entries map[string]*idemEntry // pending flights and recorded outcomes
	fifo    qos.FIFO[*idemEntry]  // records oldest first; see trimLocked, compactLocked
	held    int                   // recorded outcomes in entries, ≤ cap
	last    time.Time             // the newest record time pushed on fifo
	cap     int
	ttl     time.Duration

	onRecord func(key string, out Outcome, at time.Time)

	hits      int64
	flights   int64
	coalesced int64
	recorded  int64
	restored  int64
	expired   int64
	evicted   *metrics.Counter // see CountEvictions
	replayed  int64            // ReplayEvicted
	shared    atomic.Int64     // bumped by waiters, outside mu
}

// DefaultIdemCapacity bounds the table when the caller passes capacity ≤ 0.
const DefaultIdemCapacity = 4096

// NewIdemTable builds a table holding at most capacity recorded outcomes
// (≤ 0 selects DefaultIdemCapacity), each kept for ttl after insertion
// (ttl ≤ 0 means entries never expire — capacity still bounds the table).
// At capacity a record forgets the oldest live outcome, counted in Evicted.
// Pending flights count against nothing and are never evicted.
func NewIdemTable(capacity int, ttl time.Duration) *IdemTable {
	if capacity <= 0 {
		capacity = DefaultIdemCapacity
	}
	return &IdemTable{
		entries: make(map[string]*idemEntry),
		cap:     capacity,
		ttl:     ttl,
		evicted: new(metrics.Counter),
	}
}

// OnRecord registers a callback invoked (outside table locks) for every
// outcome recorded via Complete, with its record time — the journal append
// hook. Restored entries do not fire it (they came *from* the journal).
func (t *IdemTable) OnRecord(fn func(key string, out Outcome, at time.Time)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onRecord = fn
}

// CountEvictions makes c the table's count of live outcomes forgotten at
// capacity (IdemStats.Evicted): the broker's idem_evicted_live_total.
func (t *IdemTable) CountEvictions(c *metrics.Counter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c.Add(t.evicted.Value())
	t.evicted = c
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
			if e.ready == nil {
				e.ready = make(chan struct{})
			}
			t.coalesced++
			return Outcome{}, false, &e.waiter
		}
		if !t.expiredLocked(e.at, clock.Now()) {
			t.hits++
			return e.out, true, nil
		}
		// Recorded but expired: the window closed; treat as first arrival.
		t.expired++
		t.held--
	}
	e := &idemEntry{t: t, key: key, state: idemPending}
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
	var fn func(string, Outcome, time.Time)
	if record {
		now := clock.Now()
		t.recordLocked(e, now, now, false)
		t.recorded++
		fn = t.onRecord
	} else {
		delete(t.entries, e.key)
	}
	at := e.at
	e.wake()
	t.mu.Unlock()
	if fn != nil {
		fn(e.key, out, at)
	}
}

// wake releases the entry's waiters, if it has any. Caller holds t.mu.
func (e *idemEntry) wake() {
	if e.ready != nil {
		close(e.ready)
	}
}

// Restore re-arms an outcome recorded at time at from a journal (brokerd
// restart), reporting whether it did: an outcome that has outlived the TTL
// is skipped and counted nowhere. A zero at means now. The outcome expires
// at + TTL, as it would have without the restart. Idempotent: a later record
// for the same key wins, matching journal replay order. Restored entries do
// not fire OnRecord. An in-flight first execution for the key is overtaken:
// its waiters wake with the restored outcome.
func (t *IdemTable) Restore(key string, out Outcome, at time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := clock.Now()
	if at.IsZero() {
		at = now
	} else if t.expiredLocked(at, now) {
		return false
	}
	if e, ok := t.entries[key]; ok && e.state == idemPending {
		e.state, e.out = idemDone, out
		e.wake()
	} else if ok { // a recorded outcome, replaced: its FIFO slot goes stale
		if t.expiredLocked(e.at, now) {
			t.expired++
		}
		t.held--
	}
	e := &idemEntry{t: t, key: key, state: idemDone, out: out}
	t.entries[key] = e
	t.recordLocked(e, at, now, true)
	t.restored++
	return true
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
		Expired:   t.expired,
		Evicted:   t.evicted.Value(),

		ReplayEvicted: t.replayed,
	}
}

// expiredLocked reports whether an outcome recorded at time at has outlived
// the TTL.
func (t *IdemTable) expiredLocked(at, now time.Time) bool {
	return t.ttl > 0 && now.Sub(at) > t.ttl
}

// recordLocked stamps a done entry with at, raised to the newest record time
// so that record times never decrease along the FIFO, then queues it, trims
// as of now and compacts when due. replay says a Restore records it. Caller
// holds t.mu.
func (t *IdemTable) recordLocked(e *idemEntry, at, now time.Time, replay bool) {
	if at.Before(t.last) {
		at = t.last
	}
	e.at, t.last = at, at
	t.fifo.Push(e)
	t.held++
	t.trimLocked(now, replay)
	if t.fifo.Len() > 2*t.held {
		t.compactLocked()
	}
}

// compactLocked drops every stale slot from the FIFO, keeping the live ones
// in order. A replay that restores keys again behind a live head leaves
// stale slots the trim never reaches; run once they outnumber the live
// ones, this keeps the FIFO within twice the capacity at O(1) per record
// amortised. Caller holds t.mu.
func (t *IdemTable) compactLocked() {
	for n := t.fifo.Len(); n > 0; n-- {
		if e := t.fifo.Pop(); t.entries[e.key] == e {
			t.fifo.Push(e)
		}
	}
}

// trimLocked pops the FIFO's head until it is a live outcome within capacity;
// expired outcomes are a prefix, as record times never decrease. A stale
// slot, whose key moved on to another entry, was counted when it moved.
func (t *IdemTable) trimLocked(now time.Time, replay bool) {
	for t.fifo.Len() > 0 {
		if e := t.fifo.Peek(); t.entries[e.key] == e {
			switch {
			case t.expiredLocked(e.at, now):
				t.expired++
			case t.held > t.cap && replay:
				t.replayed++
			case t.held > t.cap:
				t.evicted.Inc()
			default:
				return
			}
			delete(t.entries, e.key)
			t.held--
		}
		t.fifo.Pop()
	}
}
