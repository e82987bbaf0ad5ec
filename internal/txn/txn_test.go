package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"servicebroker/internal/qos"
)

func TestBeginObserveComplete(t *testing.T) {
	tr := NewTracker()
	if err := tr.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	// Begin is idempotent while the transaction is still at step 1 (a tagged
	// request may have raced ahead and created it).
	if err := tr.Begin("t1"); err != nil {
		t.Fatalf("repeat begin at step 1 rejected: %v", err)
	}
	s, err := tr.Observe("t1", 1)
	if err != nil || s.Step != 1 || s.Accesses != 1 {
		t.Fatalf("observe = %+v, %v", s, err)
	}
	s, err = tr.Observe("t1", 3)
	if err != nil || s.Step != 3 || s.Accesses != 2 {
		t.Fatalf("observe = %+v, %v", s, err)
	}
	if err := tr.Complete("t1"); err != nil {
		t.Fatal(err)
	}
	completed, aborted := tr.Stats()
	if completed != 1 || aborted != 0 {
		t.Fatalf("stats = %d, %d", completed, aborted)
	}
	if tr.ActiveCount() != 0 {
		t.Fatal("transaction still active after complete")
	}
}

func TestObserveCreatesImplicitly(t *testing.T) {
	tr := NewTracker()
	s, err := tr.Observe("implicit", 2)
	if err != nil || s.Step != 2 {
		t.Fatalf("observe = %+v, %v", s, err)
	}
	if tr.ActiveCount() != 1 {
		t.Fatal("implicit transaction not tracked")
	}
}

func TestObserveStepMonotone(t *testing.T) {
	tr := NewTracker()
	tr.Observe("t", 3)
	if _, err := tr.Observe("t", 2); !errors.Is(err, ErrBadStep) {
		t.Fatalf("err = %v, want ErrBadStep", err)
	}
	if _, err := tr.Observe("t", 0); !errors.Is(err, ErrBadStep) {
		t.Fatalf("err = %v, want ErrBadStep", err)
	}
	if _, err := tr.Observe("", 1); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := tr.Begin(""); err == nil {
		t.Fatal("empty begin accepted")
	}
}

func TestAbort(t *testing.T) {
	tr := NewTracker()
	tr.Begin("t")
	if err := tr.Abort("t"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Abort("t"); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("double abort err = %v", err)
	}
	if err := tr.Complete("ghost"); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("complete unknown err = %v", err)
	}
	_, aborted := tr.Stats()
	if aborted != 1 {
		t.Fatalf("aborted = %d", aborted)
	}
}

// A backend failure mid-transaction aborts it; a retry under the same ID is
// a fresh transaction (implicit re-creation), not a resumption — the step
// monotonicity clock restarts with it.
func TestStepFailureMidTransaction(t *testing.T) {
	tr := NewTracker()
	if err := tr.Begin("order-7"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Observe("order-7", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Observe("order-7", 2); err != nil {
		t.Fatal(err)
	}
	// Step 2's backend access fails; the broker aborts the transaction.
	if err := tr.Abort("order-7"); err != nil {
		t.Fatal(err)
	}
	if tr.ActiveCount() != 0 {
		t.Fatal("aborted transaction still active")
	}
	completed, aborted := tr.Stats()
	if completed != 0 || aborted != 1 {
		t.Fatalf("stats = %d, %d; want 0, 1", completed, aborted)
	}
	// The client retries from step 1 under the same ID: tracked as new.
	s, err := tr.Observe("order-7", 1)
	if err != nil {
		t.Fatalf("retry after abort rejected: %v", err)
	}
	if s.Step != 1 || s.Accesses != 1 {
		t.Fatalf("retry state = %+v, want fresh step 1 with 1 access", s)
	}
}

// An access retransmitted after its transaction finished must not resurrect
// completed state at an earlier step and then trip monotonicity for the
// retried flow — it re-creates the transaction at whatever step it carries.
func TestObserveAfterCompleteRecreates(t *testing.T) {
	tr := NewTracker()
	tr.Observe("t", 3)
	if err := tr.Complete("t"); err != nil {
		t.Fatal(err)
	}
	s, err := tr.Observe("t", 2)
	if err != nil {
		t.Fatalf("post-complete observe rejected: %v", err)
	}
	if s.Step != 2 || s.Accesses != 1 {
		t.Fatalf("recreated state = %+v", s)
	}
}

// Duplicate completion (e.g. a retried completion callback after the first
// one's response was lost) must error without double-counting, and must not
// let an already-completed transaction also score as aborted.
func TestDuplicateCompletion(t *testing.T) {
	tr := NewTracker()
	tr.Begin("t")
	if err := tr.Complete("t"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Complete("t"); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("duplicate complete err = %v, want ErrUnknownTxn", err)
	}
	if err := tr.Abort("t"); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("abort after complete err = %v, want ErrUnknownTxn", err)
	}
	completed, aborted := tr.Stats()
	if completed != 1 || aborted != 0 {
		t.Fatalf("stats = %d, %d; want 1, 0", completed, aborted)
	}
}

// Racing completions for one transaction: exactly one wins, the rest get
// ErrUnknownTxn, and the completed counter moves by exactly one.
func TestConcurrentDuplicateCompletion(t *testing.T) {
	tr := NewTracker()
	tr.Begin("t")
	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = tr.Complete("t")
		}(i)
	}
	wg.Wait()
	wins := 0
	for i, err := range errs {
		switch {
		case err == nil:
			wins++
		case !errors.Is(err, ErrUnknownTxn):
			t.Errorf("racer %d: err = %v, want nil or ErrUnknownTxn", i, err)
		}
	}
	if wins != 1 {
		t.Fatalf("%d completions won, want exactly 1", wins)
	}
	if completed, _ := tr.Stats(); completed != 1 {
		t.Fatalf("completed = %d, want 1", completed)
	}
}

func TestLookupCopies(t *testing.T) {
	tr := NewTracker()
	tr.Observe("t", 1)
	s, ok := tr.Lookup("t")
	if !ok {
		t.Fatal("lookup failed")
	}
	s.Step = 99
	again, _ := tr.Lookup("t")
	if again.Step != 1 {
		t.Fatal("Lookup leaked internal state")
	}
	if _, ok := tr.Lookup("ghost"); ok {
		t.Fatal("ghost lookup ok")
	}
}

func TestEscalatedClass(t *testing.T) {
	tests := []struct {
		base qos.Class
		step int
		want qos.Class
	}{
		{qos.Class3, 1, qos.Class3},
		{qos.Class3, 2, qos.Class2},
		{qos.Class3, 3, qos.Class1},
		{qos.Class3, 9, qos.Class1}, // floored
		{qos.Class1, 3, qos.Class1},
		{qos.Class2, 0, qos.Class2},
	}
	for _, tt := range tests {
		if got := EscalatedClass(tt.base, tt.step); got != tt.want {
			t.Errorf("EscalatedClass(%v, %d) = %v, want %v", tt.base, tt.step, got, tt.want)
		}
	}
}

// Property: escalation never lowers priority and never exceeds class 1.
func TestEscalationMonotoneProperty(t *testing.T) {
	f := func(base uint8, step uint8) bool {
		b := qos.Class(int(base)%5 + 1)
		got := EscalatedClass(b, int(step)%6)
		return got >= qos.Class1 && got <= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Begin against a transaction that progressed past step 1 is still a
// duplicate-ID error, not idempotent.
func TestBeginPastStepOneRejected(t *testing.T) {
	tr := NewTracker()
	if _, err := tr.Observe("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Begin("t"); err == nil {
		t.Fatal("begin against step-2 transaction accepted")
	}
}

// The Begin/Observe first-sight race: a tagged request creating the
// transaction concurrently with the client's explicit Begin must never fail
// either side. Regression for the seed behavior where Begin errored if the
// Observe landed first.
func TestConcurrentBeginObserveRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		tr := NewTracker()
		var wg sync.WaitGroup
		var beginErr error
		var observeErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			beginErr = tr.Begin("race")
		}()
		go func() {
			defer wg.Done()
			_, observeErr = tr.Observe("race", 1)
		}()
		wg.Wait()
		if beginErr != nil {
			t.Fatalf("round %d: Begin lost the race: %v", round, beginErr)
		}
		if observeErr != nil {
			t.Fatalf("round %d: Observe failed: %v", round, observeErr)
		}
		if tr.ActiveCount() != 1 {
			t.Fatalf("round %d: active = %d, want 1", round, tr.ActiveCount())
		}
	}
}

// Regression for the unbounded-growth bug: abandoned transactions used to
// stay in the active table forever. With a TTL set, a sweep aborts them,
// counts them as abandoned, runs their compensations, and fires OnAbandon.
func TestAbandonmentSweep(t *testing.T) {
	now := time.Unix(1000, 0)
	tr := NewTracker()
	tr.SetClock(func() time.Time { return now })
	tr.SetTTL(time.Minute)

	var abandoned []string
	tr.OnAbandon(func(s State) { abandoned = append(abandoned, s.ID) })

	compensated := false
	tr.Observe("stale", 2)
	if err := tr.RegisterCompensation("stale", 2, "undo", func(context.Context) error {
		compensated = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	tr.Observe("fresh", 1)

	// "stale" is now 70s idle, "fresh" 40s — only stale is past the TTL.
	now = now.Add(40 * time.Second)
	tr.Observe("fresh", 2) // refresh and trigger the lazy sweep

	if tr.ActiveCount() != 1 {
		t.Fatalf("active = %d after sweep, want 1", tr.ActiveCount())
	}
	if _, ok := tr.Lookup("stale"); ok {
		t.Fatal("abandoned transaction still active")
	}
	if !compensated {
		t.Fatal("abandoned transaction's compensation did not run")
	}
	if len(abandoned) != 1 || abandoned[0] != "stale" {
		t.Fatalf("OnAbandon got %v, want [stale]", abandoned)
	}
	if got := tr.Abandoned(); got != 1 {
		t.Fatalf("Abandoned() = %d, want 1", got)
	}
	if _, aborted := tr.Stats(); aborted != 1 {
		t.Fatalf("aborted = %d, want 1 (abandoned counts as aborted)", aborted)
	}

	// Growth stays bounded: churn many one-shot transactions through and
	// sweep — nothing may accumulate.
	for i := 0; i < 500; i++ {
		tr.Observe(fmt.Sprintf("ghost-%d", i), 1)
	}
	now = now.Add(2 * time.Minute)
	tr.Sweep()
	if tr.ActiveCount() != 0 {
		t.Fatalf("active = %d after full sweep, want 0", tr.ActiveCount())
	}
	if got := tr.Abandoned(); got != 502 {
		t.Fatalf("Abandoned() = %d, want 502", got)
	}
}

// With no TTL the tracker still stays bounded: past 4,096 transactions it
// forgets the least recently seen of those holding no compensation. Forgetting
// is not aborting — nothing runs and nothing counts — and a transaction with
// a compensation to run is never forgotten this way.
func TestUntimedTrackerForgetsLeastRecentlySeen(t *testing.T) {
	now := time.Unix(1000, 0)
	tr := NewTracker()
	tr.SetClock(func() time.Time { now = now.Add(time.Millisecond); return now })
	tr.Observe("held", 1)
	ran := false
	if err := tr.RegisterCompensation("held", 1, "undo", func(context.Context) error {
		ran = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, err := tr.Observe(fmt.Sprintf("one-shot-%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := tr.ActiveCount(); n > 4096 {
		t.Fatalf("active = %d after 10,000 one-step transactions, want ≤ 4,096", n)
	}
	if _, ok := tr.Lookup("held"); !ok {
		t.Fatal("transaction holding a compensation was forgotten")
	}
	if _, ok := tr.Lookup("one-shot-9999"); !ok {
		t.Fatal("most recent transaction was forgotten")
	}
	if _, ok := tr.Lookup("one-shot-0"); ok {
		t.Fatal("least recently seen transaction is still tracked")
	}
	if _, aborted := tr.Stats(); ran || aborted != 0 || tr.Abandoned() != 0 {
		t.Fatalf("forgetting aborted: compensation ran %v, aborted %d, abandoned %d", ran, aborted, tr.Abandoned())
	}
}

// Sweep with no TTL configured is a no-op.
func TestSweepDisabledByDefault(t *testing.T) {
	tr := NewTracker()
	tr.Observe("t", 1)
	if got := tr.Sweep(); got != nil {
		t.Fatalf("Sweep() = %v with no TTL, want nil", got)
	}
	if tr.ActiveCount() != 1 {
		t.Fatal("transaction vanished without a TTL")
	}
}

// Compensations run in reverse registration order (saga unwinding) and a
// failing compensation does not stop the run — partial compensation is
// accounted, not hidden.
func TestAbortRunsCompensationsInReverse(t *testing.T) {
	tr := NewTracker()
	tr.Observe("buy", 1)
	var order []string
	tr.RegisterCompensation("buy", 1, "release-monitor-hold", func(context.Context) error {
		order = append(order, "release-monitor-hold")
		return nil
	})
	tr.Observe("buy", 2)
	tr.RegisterCompensation("buy", 2, "release-card-hold", func(context.Context) error {
		order = append(order, "release-card-hold")
		return errors.New("vendor unreachable")
	})
	tr.Observe("buy", 3)
	tr.RegisterCompensation("buy", 3, "void-purchase", func(context.Context) error {
		order = append(order, "void-purchase")
		return nil
	})

	report, err := tr.AbortContext(context.Background(), "buy")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"void-purchase", "release-card-hold", "release-monitor-hold"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("compensation order = %v, want %v", order, want)
	}
	if len(report.Ran) != 3 || report.Failed != 1 {
		t.Fatalf("report = %+v, want 3 ran / 1 failed", report)
	}
	if report.Ran[1].Err == nil || report.Ran[1].Name != "release-card-hold" {
		t.Fatalf("failed compensation not attributed: %+v", report.Ran[1])
	}

	snap := tr.Snapshot()
	if snap.CompensationsRun != 3 || snap.CompensationsFailed != 1 {
		t.Fatalf("snapshot accounting = %d run / %d failed, want 3/1",
			snap.CompensationsRun, snap.CompensationsFailed)
	}
}

// Completing a transaction discards its compensations: the saga committed.
func TestCompleteDiscardsCompensations(t *testing.T) {
	tr := NewTracker()
	tr.Observe("t", 1)
	ran := false
	tr.RegisterCompensation("t", 1, "undo", func(context.Context) error { ran = true; return nil })
	if err := tr.Complete("t"); err != nil {
		t.Fatal(err)
	}
	// A later Observe re-creates the ID; aborting the fresh incarnation must
	// not run the committed saga's undo.
	tr.Observe("t", 1)
	if err := tr.Abort("t"); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("committed transaction's compensation ran")
	}
}

func TestRegisterCompensationErrors(t *testing.T) {
	tr := NewTracker()
	if err := tr.RegisterCompensation("ghost", 1, "x", func(context.Context) error { return nil }); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("err = %v, want ErrUnknownTxn", err)
	}
	tr.Observe("t", 1)
	if err := tr.RegisterCompensation("t", 1, "x", nil); err == nil {
		t.Fatal("nil compensation accepted")
	}
}

func TestSnapshotRows(t *testing.T) {
	now := time.Unix(2000, 0)
	tr := NewTracker()
	tr.SetClock(func() time.Time { return now })
	tr.Observe("old", 1)
	now = now.Add(10 * time.Second)
	tr.Observe("new", 3)
	tr.RegisterCompensation("new", 3, "undo", func(context.Context) error { return nil })
	tr.Complete("old")
	tr.Observe("old2", 2)
	tr.Abort("old2")

	snap := tr.Snapshot()
	if snap.Completed != 1 || snap.Aborted != 1 {
		t.Fatalf("totals = %d/%d, want 1/1", snap.Completed, snap.Aborted)
	}
	if len(snap.Active) != 1 {
		t.Fatalf("active rows = %d, want 1", len(snap.Active))
	}
	row := snap.Active[0]
	if row.ID != "new" || row.Step != 3 || row.Accesses != 1 || row.Compensations != 1 {
		t.Fatalf("row = %+v", row)
	}
}

func TestConcurrentObserves(t *testing.T) {
	tr := NewTracker()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("txn-%d", w)
			for step := 1; step <= 5; step++ {
				if _, err := tr.Observe(id, step); err != nil {
					t.Errorf("observe: %v", err)
					return
				}
			}
			if w%2 == 0 {
				tr.Complete(id)
			} else {
				tr.Abort(id)
			}
		}(w)
	}
	wg.Wait()
	completed, aborted := tr.Stats()
	if completed != 4 || aborted != 4 {
		t.Fatalf("stats = %d, %d; want 4, 4", completed, aborted)
	}
}
