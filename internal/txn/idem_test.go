package txn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/clock"
	"servicebroker/internal/qos"
	"servicebroker/internal/slotindex"
	"servicebroker/internal/testutil"
)

func TestIdemKeyComposite(t *testing.T) {
	// Field boundaries must be unambiguous: "t-1" step 2 vs "t-12" etc.
	keys := map[string]bool{}
	for _, c := range []struct {
		txn  string
		step int
		key  string
	}{
		{"t-1", 2, "a"}, {"t-12", 2, "a"}, {"t-1", 22, "a"}, {"t-1", 2, "2a"},
	} {
		k := IdemKey(c.txn, c.step, c.key)
		if keys[k] {
			t.Fatalf("collision on %+v: %q", c, k)
		}
		keys[k] = true
	}
}

func TestAcquireRecordHit(t *testing.T) {
	tbl := NewIdemTable(16, 0)
	key := IdemKey("t1", 2, "hold-sku-9")

	out, hit, tk := tbl.Acquire(key)
	if hit || !tk.Owner() {
		t.Fatalf("first acquire: hit=%v ticket=%v", hit, tk)
	}
	_ = out
	tk.Complete(Outcome{Status: 1, Fidelity: qos.FidelityFull, Payload: []byte("held")})

	out, hit, tk = tbl.Acquire(key)
	if !hit || tk != (Ticket{}) {
		t.Fatalf("duplicate acquire: hit=%v ticket=%v", hit, tk)
	}
	if string(out.Payload) != "held" || out.Status != 1 {
		t.Fatalf("replayed outcome = %+v", out)
	}
	st := tbl.Stats()
	if st.Hits != 1 || st.Recorded != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 recorded", st)
	}
}

func TestAcquireCoalescesInFlight(t *testing.T) {
	tbl := NewIdemTable(16, 0)
	key := IdemKey("t1", 1, "hold")

	_, _, owner := tbl.Acquire(key)
	if !owner.Owner() {
		t.Fatal("first arrival not owner")
	}
	_, hit, dup := tbl.Acquire(key)
	if hit || dup == (Ticket{}) || dup.Owner() {
		t.Fatalf("in-flight duplicate: hit=%v dup=%v", hit, dup)
	}

	done := make(chan Outcome, 1)
	go func() {
		out, ok, err := dup.Await(context.Background())
		if err != nil || !ok {
			t.Errorf("await: ok=%v err=%v", ok, err)
		}
		done <- out
	}()

	owner.Complete(Outcome{Status: 1, Payload: []byte("first")})
	select {
	case out := <-done:
		if string(out.Payload) != "first" {
			t.Fatalf("coalesced outcome = %+v", out)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("coalesced waiter never woke")
	}
	if st := tbl.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", st.Coalesced)
	}
}

func TestCancelReleasesWaitersWithoutOutcome(t *testing.T) {
	tbl := NewIdemTable(16, 0)
	key := IdemKey("t1", 1, "hold")
	_, _, owner := tbl.Acquire(key)
	_, _, dup := tbl.Acquire(key)

	owner.Cancel()
	out, ok, err := dup.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("cancelled execution produced an outcome: %+v", out)
	}
	// After a cancel the key is free again — the retry executes for real.
	_, hit, tk := tbl.Acquire(key)
	if hit || !tk.Owner() {
		t.Fatal("retry after cancel did not become owner")
	}
	tk.Cancel()
}

func TestAwaitContextCancel(t *testing.T) {
	tbl := NewIdemTable(16, 0)
	_, _, owner := tbl.Acquire("k")
	_, _, dup := tbl.Acquire("k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := dup.Await(ctx); err == nil {
		t.Fatal("Await ignored cancelled context")
	}
	owner.Cancel()
}

func TestNonOwnerCompleteIsNoop(t *testing.T) {
	tbl := NewIdemTable(16, 0)
	_, _, owner := tbl.Acquire("k")
	_, _, dup := tbl.Acquire("k")
	dup.Complete(Outcome{Status: 99}) // must not record
	dup.Cancel()                      // must not free the slot
	if _, ok := tbl.Lookup("k"); ok {
		t.Fatal("non-owner Complete recorded an outcome")
	}
	owner.Complete(Outcome{Status: 1})
	if out, ok := tbl.Lookup("k"); !ok || out.Status != 1 {
		t.Fatalf("owner outcome lost: %+v ok=%v", out, ok)
	}
}

func TestRestoreReArmsOutcome(t *testing.T) {
	tbl := NewIdemTable(16, 0)
	tbl.Restore("k", Outcome{Status: 1, Payload: []byte("journaled")}, time.Time{})
	out, hit, _ := tbl.Acquire("k")
	if !hit || string(out.Payload) != "journaled" {
		t.Fatalf("restored outcome not served: hit=%v out=%+v", hit, out)
	}
	if st := tbl.Stats(); st.Restored != 1 {
		t.Fatalf("restored = %d, want 1", st.Restored)
	}
}

func TestRestoreDoesNotFireOnRecord(t *testing.T) {
	tbl := NewIdemTable(16, 0)
	fired := 0
	tbl.OnRecord(func(string, Outcome, time.Time) { fired++ })
	tbl.Restore("k", Outcome{Status: 1}, time.Time{})
	if fired != 0 {
		t.Fatal("Restore fired OnRecord — journal replay would re-journal")
	}
	_, _, tk := tbl.Acquire("k2")
	tk.Complete(Outcome{Status: 1})
	if fired != 1 {
		t.Fatalf("Complete fired OnRecord %d times, want 1", fired)
	}
}

// A replay that restores one key again and again behind a live head leaves
// a stale FIFO slot per restore; they are dropped as they pile up, so the
// FIFO stays within twice the capacity whatever the journal's length.
func TestRestoreAgainBehindLiveHeadKeepsFIFOBounded(t *testing.T) {
	for _, ttl := range []time.Duration{0, time.Hour} {
		testutil.FakeClock(t)
		const capacity = 4
		tbl := NewIdemTable(capacity, ttl)
		tbl.Restore("B", Outcome{Status: 1}, time.Time{})
		for i := 0; i < 10000; i++ {
			tbl.Restore("A", Outcome{Status: 1, Payload: []byte{byte(i)}}, time.Time{})
			if n := tbl.fifo.Len(); n > 2*capacity+1 {
				t.Fatalf("ttl %v: FIFO holds %d slots after %d restores of A, want ≤ %d", ttl, n, i+1, 2*capacity+1)
			}
		}
		out, ok := tbl.Lookup("A")
		if _, okB := tbl.Lookup("B"); !ok || !okB || out.Payload[0] != byte(9999%256) {
			t.Fatalf("ttl %v: after the replay A = %+v (%v), B present %v; want the last A and B", ttl, out, ok, okB)
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	advance := testutil.FakeClock(t)
	tbl := NewIdemTable(16, time.Minute)

	_, _, tk := tbl.Acquire("k")
	tk.Complete(Outcome{Status: 1})
	if _, ok := tbl.Lookup("k"); !ok {
		t.Fatal("fresh outcome missing")
	}
	advance(2 * time.Minute)
	if _, ok := tbl.Lookup("k"); ok {
		t.Fatal("expired outcome still served")
	}
	// An acquire after expiry is a fresh first arrival.
	_, hit, tk2 := tbl.Acquire("k")
	if hit || !tk2.Owner() {
		t.Fatal("acquire after expiry did not become owner")
	}
	tk2.Cancel()
}

func TestCapacityBoundWithFIFOEviction(t *testing.T) {
	tbl := NewIdemTable(8, 0)
	for i := 0; i < 40; i++ {
		_, _, tk := tbl.Acquire(fmt.Sprintf("k%d", i))
		tk.Complete(Outcome{Status: 1})
	}
	if n := tbl.Len(); n > 8 {
		t.Fatalf("table grew to %d entries past capacity 8", n)
	}
	// Newest entries survive; the oldest were FIFO-evicted.
	if _, ok := tbl.Lookup("k39"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := tbl.Lookup("k0"); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	if st := tbl.Stats(); st.Evicted == 0 {
		t.Fatal("eviction not accounted")
	}
}

func TestPendingEntriesNeverEvicted(t *testing.T) {
	tbl := NewIdemTable(4, 0)
	var owners []Ticket
	for i := 0; i < 6; i++ {
		_, _, tk := tbl.Acquire(fmt.Sprintf("pending%d", i))
		owners = append(owners, tk)
	}
	// Push recorded entries through to create eviction pressure.
	for i := 0; i < 20; i++ {
		_, _, tk := tbl.Acquire(fmt.Sprintf("done%d", i))
		tk.Complete(Outcome{Status: 1})
	}
	for i, tk := range owners {
		// Each pending owner must still hold its slot: a second acquire
		// coalesces rather than becoming a new owner.
		_, hit, dup := tbl.Acquire(fmt.Sprintf("pending%d", i))
		if hit || dup == (Ticket{}) || dup.Owner() {
			t.Fatalf("pending%d lost its slot under eviction pressure", i)
		}
		tk.Cancel()
	}
}

// TestInFlightWritesDoNotCrowdOutOutcomes: capacity bounds recorded outcomes,
// so writes still in flight push none of them out.
func TestInFlightWritesDoNotCrowdOutOutcomes(t *testing.T) {
	tbl := NewIdemTable(4, 0)
	record := func(key string) {
		_, _, tk := tbl.Acquire(key)
		tk.Complete(Outcome{Status: 1})
	}
	for i := 0; i < 4; i++ {
		record(fmt.Sprintf("done%d", i))
	}
	for i := 0; i < 3; i++ {
		tbl.Acquire(fmt.Sprintf("pending%d", i))
	}
	record("done4")
	kept := 0
	for i := 0; i < 5; i++ {
		if _, ok := tbl.Lookup(fmt.Sprintf("done%d", i)); ok {
			kept++
		}
	}
	if st := tbl.Stats(); kept != 4 || st.Evicted != 1 {
		t.Fatalf("%d of 5 outcomes kept, evicted = %d; want 4 kept, 1 evicted", kept, st.Evicted)
	}
	if _, ok := tbl.Lookup("done0"); ok {
		t.Fatal("the oldest outcome survived past capacity")
	}
}

func TestIdemTableConcurrentDuplicates(t *testing.T) {
	tbl := NewIdemTable(64, 0)
	const dups = 32
	var executions int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	results := make([]Outcome, dups)
	wg.Add(dups)
	for i := 0; i < dups; i++ {
		go func(i int) {
			defer wg.Done()
			out, hit, tk := tbl.Acquire("shared")
			if hit {
				results[i] = out
				return
			}
			if tk.Owner() {
				mu.Lock()
				executions++
				mu.Unlock()
				out = Outcome{Status: 1, Payload: []byte("once")}
				tk.Complete(out)
				results[i] = out
				return
			}
			out, ok, err := tk.Await(context.Background())
			if err != nil || !ok {
				t.Errorf("await: ok=%v err=%v", ok, err)
				return
			}
			results[i] = out
		}(i)
	}
	wg.Wait()
	if executions != 1 {
		t.Fatalf("executions = %d, want exactly 1", executions)
	}
	for i, out := range results {
		if string(out.Payload) != "once" {
			t.Fatalf("duplicate %d got %+v", i, out)
		}
	}
}

// TestIdemTableAllocHotPath is the alloc-regression gate for the idempotency
// hot path (matched by CI's -run 'Alloc' bench-smoke step): a replay hit —
// the path every duplicate datagram takes under failover — must not allocate.
func TestIdemTableAllocHotPath(t *testing.T) {
	tbl := NewIdemTable(64, 0)
	key := IdemKey("t1", 2, "hold")
	_, _, tk := tbl.Acquire(key)
	tk.Complete(Outcome{Status: 1, Payload: []byte("held")})

	allocs := testing.AllocsPerRun(1000, func() {
		if _, hit, _ := tbl.Acquire(key); !hit {
			t.Fatal("hit path missed")
		}
	})
	if allocs > 0 {
		t.Fatalf("idempotency hit path allocates %.1f objects/op, want 0", allocs)
	}

	lookups := testing.AllocsPerRun(1000, func() {
		if _, ok := tbl.Lookup(key); !ok {
			t.Fatal("lookup missed")
		}
	})
	if lookups > 0 {
		t.Fatalf("Lookup allocates %.1f objects/op, want 0", lookups)
	}

	// A flight nobody waits on — the coalescing broker's every cache miss —
	// takes a free slot and gives it back: the waiters' wake-up is made by a
	// first waiter.
	flight := IdemKey("t1", 3, "read")
	flights := testing.AllocsPerRun(1000, func() {
		_, _, tk := tbl.Acquire(flight)
		if !tk.Owner() {
			t.Fatal("flight not owned")
		}
		tk.Share(Outcome{Status: 1})
	})
	if flights > 0 {
		t.Fatalf("unwaited flight allocates %.1f objects/op, want 0", flights)
	}

	// Recording at capacity evicts the oldest outcome and takes its slot:
	// the slab, the index and the FIFO's array stop growing once warm.
	full := NewIdemTable(64, time.Minute)
	keys := make([]string, 4*64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	i := 0
	recordNext := func() {
		_, _, tk := full.Acquire(keys[i%len(keys)])
		tk.Complete(Outcome{Status: 1})
		i++
	}
	for range keys {
		recordNext()
	}
	if records := testing.AllocsPerRun(1000, recordNext); records > 0 {
		t.Fatalf("a record at capacity allocates %.1f objects/op, want 0", records)
	}
}

// TestStaleTicketSettlesNothing: slots are reused, so a ticket outlives its
// slot's entry. An owner that settles twice — the broker's give-up path
// cancels a flight the worker shares later — must not touch the flight of
// the key that took the slot in between.
func TestStaleTicketSettlesNothing(t *testing.T) {
	tbl := NewIdemTable(16, 0)
	_, _, first := tbl.Acquire("a")
	first.Share(Outcome{Status: 1})
	_, _, second := tbl.Acquire("b")
	if second.slot != first.slot {
		t.Fatalf("b took slot %d, want a's freed slot %d", second.slot, first.slot)
	}
	_, _, dup := tbl.Acquire("b")
	first.Cancel()
	first.Complete(Outcome{Status: 2})
	if _, hit, tk := tbl.Acquire("b"); hit || tk.Owner() {
		t.Fatalf("b's flight ended by a's stale ticket: hit %v owner %v", hit, tk.Owner())
	}
	if _, ok := tbl.Lookup("a"); ok {
		t.Fatal("a's stale ticket recorded an outcome")
	}
	second.Complete(Outcome{Status: 3})
	if out, ok, err := dup.Await(context.Background()); err != nil || !ok || out.Status != 3 {
		t.Fatalf("b's waiter got (%+v, %v, %v), want b's outcome", out, ok, err)
	}
	if st := tbl.Stats(); st.Size != 1 || st.Recorded != 1 {
		t.Fatalf("stats = %+v, want b alone, recorded once", st)
	}
}

// TestIdemTableRetainedBytesPerEntry bounds what a full table keeps per
// recorded outcome beyond its keys' own bytes — slot, index cells, FIFO
// reference and any slack — after churn: 10⁶ records of distinct 8-byte
// keys into 4,096 outcomes. A Go map of entry pointers read 275 to 284 B
// here, and a slab grown by append 144.1 B: the flight beside a full table
// took its 4,097th slot, append grew it to 5,222 and the index doubled to
// 16,384 cells. Sized for capacity plus its flights, it reads 116.1 to
// 117.5 B, the budget that plus 10 %.
func TestIdemTableRetainedBytesPerEntry(t *testing.T) {
	const capacity, records, budget = 4096, 1_000_000, 129
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := NewIdemTable(capacity, 0)
	for i := 0; i < records; i++ {
		_, _, tk := tbl.Acquire(fmt.Sprintf("k%07d", i))
		tk.Complete(Outcome{Status: 1})
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := tbl.Len(); n != capacity {
		t.Fatalf("%d outcomes held, want a full table of %d", n, capacity)
	}
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)-capacity*8) / capacity
	t.Logf("%.1f B per outcome beyond keys", perEntry)
	if perEntry > budget {
		t.Fatalf("%.1f B per outcome beyond keys, budget %d", perEntry, budget)
	}
	runtime.KeepAlive(tbl)
}

// BenchmarkIdemRecordFull is one keyed write — Acquire on a fresh key, then
// Complete — on a table already holding its DefaultIdemCapacity outcomes, so
// every record evicts the oldest. CI fails it above 20 µs/op.
func BenchmarkIdemRecordFull(b *testing.B) {
	for _, ttl := range []time.Duration{0, 5 * time.Minute} {
		b.Run("ttl="+ttl.String(), func(b *testing.B) {
			tbl := NewIdemTable(DefaultIdemCapacity, ttl)
			keys := make([]string, 4*DefaultIdemCapacity)
			for i := range keys {
				keys[i] = IdemKey("t", i, "hold")
			}
			record := func(i int) {
				_, _, tk := tbl.Acquire(keys[i%len(keys)])
				tk.Complete(Outcome{Status: 1})
			}
			for i := 0; i < DefaultIdemCapacity; i++ {
				record(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				record(DefaultIdemCapacity + i)
			}
		})
	}
}

// Lookup returns the recorded outcome for key, if any (and not expired).
func (t *IdemTable) Lookup(key string) (Outcome, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.find(key, slotindex.Hash(key))
	if i == slotindex.None || t.slots[i].state != idemDone || t.expiredLocked(t.slots[i].at, clock.Now()) {
		return Outcome{}, false
	}
	return t.slots[i].out, true
}
