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
	"servicebroker/internal/slotindex"
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

// idemState is a slot's lifecycle phase; a free slot's is zero.
type idemState uint8

const (
	idemPending idemState = iota + 1 // first execution in flight
	idemDone                         // outcome recorded
)

// idemEntry is one slot of the table's slab, held by value. gen tells the
// slot's successive entries apart: it changes whenever the slot is freed, so
// a stale ticket or FIFO reference is ignored however often the slot has
// been reused since.
type idemEntry struct {
	key   string
	out   Outcome  // once done
	at    int64    // record time in Unix ns, drives TTL expiry
	w     *waiters // nil until a duplicate waits on the flight
	gen   uint32
	state idemState
}

// waiters is what the coalesced duplicates of one flight wait on, made by
// the first of them. The owner's settle writes out and ok, then closes
// ready; the duplicates read both without the table lock, whatever the slot
// holds by then.
type waiters struct {
	ready chan struct{}
	out   Outcome
	ok    bool
}

// slotRef names one entry: a slot and the generation it had.
type slotRef struct {
	slot int32
	gen  uint32
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
	mu sync.Mutex
	// slots holds pending flights and recorded outcomes by value; a settled
	// flight's or forgotten outcome's slot goes on free for the next one.
	slots []idemEntry
	free  []int32
	index slotindex.Index   // the live slots, by key
	fifo  qos.FIFO[slotRef] // records oldest first; see trimLocked, compactLocked
	held  int               // recorded outcomes in slots, ≤ cap
	last  int64             // the newest record time pushed on fifo, Unix ns
	cap   int
	ttl   time.Duration

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
// or Cancel — the first call wins, later ones are no-ops, and so is any call
// once the slot has moved on to another entry; coalesced duplicates call
// Await. The zero Ticket owns nothing and settles nothing.
type Ticket struct {
	t    *IdemTable
	w    *waiters // a duplicate's wait; nil for the owner
	slot int32
	gen  uint32
}

// Owner reports whether this caller owns the first execution.
func (tk Ticket) Owner() bool { return tk.t != nil && tk.w == nil }

// Acquire looks up one access. Three outcomes:
//
//   - the access already has a recorded outcome → (outcome, true, zero
//     ticket): answer the caller with it, do not execute;
//   - first arrival → (zero, false, ticket) with ticket.Owner() true:
//     execute, then settle the ticket;
//   - duplicate of an in-flight access → (zero, false, ticket) with Owner()
//     false: ticket.Await(ctx) blocks for the first execution's outcome.
func (t *IdemTable) Acquire(key string) (Outcome, bool, Ticket) {
	h := slotindex.Hash(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := t.find(key, h); i != slotindex.None {
		e := &t.slots[i]
		if e.state == idemPending {
			if e.w == nil {
				e.w = &waiters{ready: make(chan struct{})}
			}
			t.coalesced++
			return Outcome{}, false, Ticket{t: t, w: e.w, slot: i, gen: e.gen}
		}
		if !t.expiredLocked(e.at, clock.Now()) {
			t.hits++
			return e.out, true, Ticket{}
		}
		// Recorded but expired: the window closed; a first arrival again.
		t.expired++
		t.held--
		t.release(i)
	}
	i := t.alloc(key, h, idemPending)
	t.flights++
	return Outcome{}, false, Ticket{t: t, slot: i, gen: t.slots[i].gen}
}

// Await blocks a coalesced duplicate until the first execution settles or
// ctx is done. ok is true when the owner produced an outcome — false means
// it did not (it was shed or failed before the effect), and the caller
// should execute normally.
func (tk Ticket) Await(ctx context.Context) (Outcome, bool, error) {
	w := tk.w
	select {
	case <-w.ready:
	case <-ctx.Done():
		return Outcome{}, false, ctx.Err()
	}
	if !w.ok {
		return Outcome{}, false, nil
	}
	tk.t.shared.Add(1)
	return w.out, true, nil
}

// Complete records the first outcome for the ticket's access and wakes every
// coalesced duplicate with it.
func (tk Ticket) Complete(out Outcome) { tk.settle(out, true, true) }

// Share wakes every coalesced duplicate with out but records nothing: the
// next arrival for the key is a first arrival again.
func (tk Ticket) Share(out Outcome) { tk.settle(out, true, false) }

// Cancel abandons the ticket without an outcome: the access did not execute
// (shed, dropped, backend error before the effect), so a retry is allowed to
// run for real. Coalesced duplicates wake with ok=false.
func (tk Ticket) Cancel() { tk.settle(Outcome{}, false, false) }

// settle ends the owner's flight: ok says the waiters get out, record that
// the table keeps it. A flight that is no longer pending — settled already,
// or overtaken by Restore — or whose slot has moved on is left alone, which
// is what makes settling idempotent; a ticket that owns nothing settles
// nothing.
func (tk Ticket) settle(out Outcome, ok, record bool) {
	if !tk.Owner() {
		return
	}
	t := tk.t
	t.mu.Lock()
	e := &t.slots[tk.slot]
	if e.gen != tk.gen || e.state != idemPending {
		t.mu.Unlock()
		return
	}
	key, w := e.key, e.w
	var fn func(string, Outcome, time.Time)
	var at int64
	if record {
		e.state, e.out, e.w = idemDone, out, nil
		now := clock.Now()
		t.recordLocked(tk.slot, now.UnixNano(), now, false)
		t.recorded++
		fn, at = t.onRecord, e.at
	} else {
		t.release(tk.slot)
	}
	w.wake(out, ok)
	t.mu.Unlock()
	if fn != nil {
		fn(key, out, time.Unix(0, at))
	}
}

// wake hands a flight's waiters, if it has any, what they get. Caller holds
// t.mu.
func (w *waiters) wake(out Outcome, ok bool) {
	if w != nil {
		w.out, w.ok = out, ok
		close(w.ready)
	}
}

// find returns the slot holding key, whose hash is h, or slotindex.None.
func (t *IdemTable) find(key string, h uint32) int32 {
	return t.index.Find(h, func(i int32) bool { return t.slots[i].key == key })
}

func (t *IdemTable) hashAt(i int32) uint32 { return slotindex.Hash(t.slots[i].key) }

// alloc puts an entry for key, whose hash is h, in state into a free slot,
// else into a new one at the end of the slab, and indexes it. The slab doubles
// to capacity, then grows by its overflow, at least 8. Caller holds t.mu.
func (t *IdemTable) alloc(key string, h uint32, state idemState) int32 {
	var i int32
	if n := len(t.free); n > 0 {
		i, t.free = t.free[n-1], t.free[:n-1]
	} else {
		n := len(t.slots)
		if n == cap(t.slots) {
			t.slots = append(make([]idemEntry, 0, max(min(2*n, t.cap), n+max(8, n-t.cap))), t.slots...)
		}
		t.slots, i = t.slots[:n+1], int32(n)
	}
	t.slots[i].key, t.slots[i].state = key, state
	t.index.Insert(i, h, t.hashAt)
	return i
}

// release takes slot i out of the index and frees it, dropping what it
// held: tickets and FIFO references to its entry go stale. Caller holds
// t.mu.
func (t *IdemTable) release(i int32) {
	t.index.Delete(i, t.hashAt(i), t.hashAt)
	t.slots[i] = idemEntry{gen: t.slots[i].gen + 1}
	t.free = append(t.free, i)
}

// Restore re-arms an outcome recorded at time at from a journal (brokerd
// restart), reporting whether it did: an outcome that has outlived the TTL
// is skipped and counted nowhere. A zero at means now. The outcome expires
// at + TTL, as it would have without the restart. Idempotent: a later record
// for the same key wins, matching journal replay order. Restored entries do
// not fire OnRecord. An in-flight first execution for the key is overtaken:
// its waiters wake with the restored outcome.
func (t *IdemTable) Restore(key string, out Outcome, at time.Time) bool {
	h := slotindex.Hash(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	now := clock.Now()
	if at.IsZero() {
		at = now
	} else if t.expiredLocked(at.UnixNano(), now) {
		return false
	}
	if i := t.find(key, h); i != slotindex.None {
		if e := &t.slots[i]; e.state == idemPending {
			e.w.wake(out, true)
		} else { // a recorded outcome, replaced: its FIFO reference goes stale
			if t.expiredLocked(e.at, now) {
				t.expired++
			}
			t.held--
		}
		t.release(i)
	}
	i := t.alloc(key, h, idemDone)
	t.slots[i].out = out
	t.recordLocked(i, at.UnixNano(), now, true)
	t.restored++
	return true
}

// Len returns the number of live entries (pending + recorded).
func (t *IdemTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.index.Len()
}

// Stats returns the table's accounting.
func (t *IdemTable) Stats() IdemStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return IdemStats{
		Size:      t.index.Len(),
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

// expiredLocked reports whether an outcome recorded at Unix ns at has
// outlived the TTL.
func (t *IdemTable) expiredLocked(at int64, now time.Time) bool {
	return t.ttl > 0 && now.UnixNano()-at > int64(t.ttl)
}

// live reports whether r still names the entry its slot holds.
func (t *IdemTable) live(r slotRef) bool { return t.slots[r.slot].gen == r.gen }

// recordLocked stamps slot i's done entry with at, raised to the newest
// record time so that record times never decrease along the FIFO, then
// queues it, trims as of now and compacts when due. replay says a Restore
// records it. Caller holds t.mu.
func (t *IdemTable) recordLocked(i int32, at int64, now time.Time, replay bool) {
	at = max(at, t.last)
	t.slots[i].at, t.last = at, at
	t.fifo.Push(slotRef{i, t.slots[i].gen})
	t.held++
	t.trimLocked(now, replay)
	if t.fifo.Len() > 2*t.held {
		t.compactLocked()
	}
}

// compactLocked drops every stale reference from the FIFO, keeping the live
// ones in order. A replay that restores keys again behind a live head leaves
// stale references the trim never reaches; run once they outnumber the live
// ones, this keeps the FIFO within twice the capacity at O(1) per record
// amortised. Caller holds t.mu.
func (t *IdemTable) compactLocked() {
	for n := t.fifo.Len(); n > 0; n-- {
		if r := t.fifo.Pop(); t.live(r) {
			t.fifo.Push(r)
		}
	}
}

// trimLocked pops the FIFO's head until it is a live outcome within capacity;
// expired outcomes are a prefix, as record times never decrease. A stale
// reference, whose slot moved on to another entry, was counted when it
// moved.
func (t *IdemTable) trimLocked(now time.Time, replay bool) {
	for t.fifo.Len() > 0 {
		if r := t.fifo.Peek(); t.live(r) {
			switch {
			case t.expiredLocked(t.slots[r.slot].at, now):
				t.expired++
			case t.held > t.cap && replay:
				t.replayed++
			case t.held > t.cap:
				t.evicted.Inc()
			default:
				return
			}
			t.release(r.slot)
			t.held--
		}
		t.fifo.Pop()
	}
}
