// Package txn implements the transaction-integrity support of the service
// broker framework (paper §III, "Transaction integrity assurance"). The
// motivating example is a supply-chain purchase spanning several backend
// servers multiple times: a computer manufacturer selects monitors (step 1),
// then video cards (step 2), then returns to the monitor vendor to purchase
// (step 3). Brokers tag each access with its transaction and step, and
// "gradually increase the priority of the subsequent accesses that belong to
// the same transaction": under load a broker prefers step-3 accesses and
// sheds step-1 accesses, so nearly-complete transactions do not abort.
//
// Beyond step tracking the package supplies the three mechanisms that make
// multi-step transactions survive an unreliable broker tier:
//
//   - saga-style compensation: each completed step may register an undo
//     action; Abort runs the registered compensations in reverse order and
//     accounts for partial compensation (a compensation that itself fails);
//   - abandonment sweeps: the active table is TTL'd, so a transaction whose
//     client vanished mid-flight is eventually aborted (compensations and
//     all) instead of leaking forever; with no TTL, the least recently seen
//     transactions holding no compensation are forgotten past untimedCap;
//   - an idempotency table plus crash-safe journal (idem.go, journal.go):
//     retried or failed-over mutating accesses are answered with the
//     recorded first outcome instead of re-executing the backend effect.
package txn

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"servicebroker/internal/qos"
	"servicebroker/internal/trace"
)

// State describes one tracked transaction.
type State struct {
	ID      string
	Step    int
	Started time.Time
	// LastSeen is the time of the most recent access (or Begin); the
	// abandonment sweep measures idleness against it.
	LastSeen time.Time
	// Accesses counts brokered requests made on behalf of the transaction.
	Accesses int
	// Compensations counts undo actions registered so far.
	Compensations int
}

// CompensationFunc undoes one completed step of a transaction. It receives
// the context of the Abort (or Background for TTL-sweep aborts).
type CompensationFunc func(ctx context.Context) error

// compensation is one registered undo action.
type compensation struct {
	step int
	name string
	fn   CompensationFunc
}

// CompensationResult records one compensation run during an abort.
type CompensationResult struct {
	Step int
	Name string
	Err  error // nil when the compensation succeeded
}

// AbortReport accounts for one abort's compensation run: which undo actions
// ran (in execution order — reverse registration order), and how many of
// them failed. A failed compensation does not stop the run; the saga keeps
// unwinding so the damage is bounded to the steps whose undo really broke.
type AbortReport struct {
	ID     string
	Ran    []CompensationResult
	Failed int
}

// ActiveTxn is one /txnz row: a point-in-time copy of an active transaction.
type ActiveTxn struct {
	ID            string
	Step          int
	Age           time.Duration
	Idle          time.Duration
	Accesses      int
	Compensations int
}

// Snapshot is the tracker's point-in-time state for the obs /txnz page.
type Snapshot struct {
	Active    []ActiveTxn
	Completed int
	Aborted   int
	// Abandoned counts transactions aborted by the TTL sweep rather than an
	// explicit Abort; they are included in Aborted too.
	Abandoned int
	// CompensationsRun / CompensationsFailed account saga unwinding across
	// all aborts.
	CompensationsRun    int
	CompensationsFailed int
	// TTL is the abandonment idle limit (0 = sweeping disabled).
	TTL time.Duration
}

// WriteRows renders one service's transaction state as /txnz rows: the
// tracker's totals, the idempotency table's accounting when the broker runs
// one (idem non-nil), then one line per active transaction.
func (s Snapshot) WriteRows(w io.Writer, service string, idem *IdemStats) {
	fmt.Fprintf(w, "service=%s active=%d completed=%d aborted=%d abandoned=%d compensations(run/failed)=%d/%d ttl=%s\n",
		service, len(s.Active), s.Completed, s.Aborted, s.Abandoned,
		s.CompensationsRun, s.CompensationsFailed, formatTTL(s.TTL))
	if idem != nil {
		fmt.Fprintf(w, "  idempotency: size=%d/%d ttl=%s hits=%d coalesced=%d recorded=%d restored=%d expired=%d evicted=%d\n",
			idem.Size, idem.Capacity, formatTTL(idem.TTL),
			idem.Hits, idem.Coalesced, idem.Recorded, idem.Restored, idem.Expired, idem.Evicted)
	}
	for _, a := range s.Active {
		fmt.Fprintf(w, "  txn=%s step=%d age=%s idle=%s accesses=%d compensations=%d\n",
			a.ID, a.Step, trace.FormatDuration(a.Age), trace.FormatDuration(a.Idle),
			a.Accesses, a.Compensations)
	}
}

// formatTTL renders a TTL where zero means "none configured".
func formatTTL(d time.Duration) string {
	if d <= 0 {
		return "none"
	}
	return trace.FormatDuration(d)
}

// Tracker records transaction progress and computes priority escalation.
// It is safe for concurrent use. Use NewTracker.
type Tracker struct {
	mu     sync.Mutex
	active map[string]*State
	comps  map[string][]compensation
	now    func() time.Time

	// ttl is the idle limit after which an active transaction counts as
	// abandoned; 0 disables sweeping. lastSweep rate-limits the lazy sweep
	// piggybacked on Observe.
	ttl       time.Duration
	lastSweep time.Time
	onAbandon func(State)
	// forgetAt is the active count past which insertLocked forgets, with no
	// TTL; a pass sets it to twice what it left, so passes stay amortised.
	forgetAt int

	completed   int
	aborted     int
	abandoned   int
	compsRun    int
	compsFailed int
}

// NewTracker returns an empty tracker with abandonment sweeping disabled.
func NewTracker() *Tracker {
	return &Tracker{
		active:   make(map[string]*State),
		comps:    make(map[string][]compensation),
		now:      time.Now,
		forgetAt: untimedCap,
	}
}

// untimedCap bounds the active table when no TTL is set. A broker uses the
// tracker for step monotonicity and /txnz, so a transaction that never
// completes and holds no compensation can go once newer ones crowd it out;
// one that holds compensations stays until it completes or aborts.
const untimedCap = 4096

// insertLocked starts tracking id and, with no TTL, forgets the least
// recently seen other transactions holding no compensation once the table
// passes forgetAt, down to half of untimedCap. Forgetting is not aborting: no
// compensation runs and no counter moves. Caller holds t.mu.
func (t *Tracker) insertLocked(id string, step int, now time.Time) *State {
	s := &State{ID: id, Step: step, Started: now, LastSeen: now}
	t.active[id] = s
	if t.ttl > 0 || len(t.active) <= t.forgetAt {
		return s
	}
	var idle []*State
	for _, a := range t.active {
		if a != s && a.Compensations == 0 {
			idle = append(idle, a)
		}
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].LastSeen.Before(idle[j].LastSeen) })
	for _, a := range idle {
		if len(t.active) <= untimedCap/2 {
			break
		}
		delete(t.active, a.ID)
	}
	t.forgetAt = max(untimedCap, 2*len(t.active))
	return s
}

// SetClock overrides the tracker's time source (deterministic tests).
func (t *Tracker) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// SetTTL enables (or, with d ≤ 0, disables) abandonment sweeping: an active
// transaction idle for longer than d is aborted by the next sweep, its
// compensations run, and the abandoned counter incremented. Sweeps piggyback
// on Observe (rate-limited) and Snapshot; Sweep forces one.
func (t *Tracker) SetTTL(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d < 0 {
		d = 0
	}
	t.ttl = d
}

// OnAbandon registers a callback invoked (outside tracker locks) for each
// transaction the TTL sweep aborts — brokers use it to count
// txn_abandoned_total and publish timeline events.
func (t *Tracker) OnAbandon(fn func(State)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onAbandon = fn
}

// Tracker errors.
var (
	ErrUnknownTxn = errors.New("txn: unknown transaction")
	ErrBadStep    = errors.New("txn: step must not decrease")
)

// Begin starts tracking a transaction at step 1. Begin is idempotent against
// a transaction that already exists at step 1 — brokers learn about
// transactions from tagged requests, so a tagged access racing ahead of the
// client's explicit Begin must not fail it. Beginning a transaction that has
// progressed past step 1 is still an error: that is a duplicate ID, not a
// race on first sight.
func (t *Tracker) Begin(id string) error {
	if id == "" {
		return errors.New("txn: empty id")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.active[id]; ok {
		if s.Step <= 1 {
			s.LastSeen = t.now()
			return nil
		}
		return fmt.Errorf("txn: %s already active at step %d", id, s.Step)
	}
	t.insertLocked(id, 1, t.now())
	return nil
}

// Observe records one access for transaction id at the given step,
// creating the transaction on first sight (brokers learn about transactions
// from tagged requests, not from explicit begins). The step may only grow.
func (t *Tracker) Observe(id string, step int) (State, error) {
	if id == "" {
		return State{}, errors.New("txn: empty id")
	}
	if step < 1 {
		return State{}, fmt.Errorf("%w: %d", ErrBadStep, step)
	}
	t.mu.Lock()
	now := t.now()
	// Lazy abandonment sweep: at most one scan per TTL/4 so the hot path
	// stays O(1) amortized while abandoned state still gets bounded.
	var abandoned []abortWork
	if t.ttl > 0 && now.Sub(t.lastSweep) > t.ttl/4 {
		abandoned = t.collectAbandonedLocked(now)
	}
	s, ok := t.active[id]
	if !ok {
		s = t.insertLocked(id, step, now)
	}
	if step < s.Step {
		t.mu.Unlock()
		t.finishAborts(abandoned, true)
		return State{}, fmt.Errorf("%w: %d after %d", ErrBadStep, step, s.Step)
	}
	s.Step = step
	s.Accesses++
	s.LastSeen = now
	cp := *s
	t.mu.Unlock()
	t.finishAborts(abandoned, true)
	return cp, nil
}

// RegisterCompensation records an undo action for a completed step of an
// active transaction. On Abort the registered compensations run in reverse
// registration order (last completed step undone first — saga order). name
// labels the action in AbortReport and /txnz accounting.
func (t *Tracker) RegisterCompensation(id string, step int, name string, fn CompensationFunc) error {
	if fn == nil {
		return errors.New("txn: nil compensation")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.active[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTxn, id)
	}
	t.comps[id] = append(t.comps[id], compensation{step: step, name: name, fn: fn})
	s.Compensations++
	s.LastSeen = t.now()
	return nil
}

// Complete finishes a transaction successfully. Registered compensations are
// discarded — the saga committed.
func (t *Tracker) Complete(id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.active[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTxn, id)
	}
	delete(t.active, id)
	delete(t.comps, id)
	t.completed++
	return nil
}

// Abort finishes a transaction unsuccessfully, running its registered
// compensations in reverse order with a background context. See AbortContext
// for the report.
func (t *Tracker) Abort(id string) error {
	_, err := t.AbortContext(context.Background(), id)
	return err
}

// abortWork is one removed transaction whose compensations still have to run
// (outside the tracker lock — compensations are arbitrary user code and may
// call back into the tracker).
type abortWork struct {
	state State
	comps []compensation
}

// AbortContext finishes a transaction unsuccessfully and runs its registered
// compensations in reverse registration order, continuing past failures. The
// report lists every compensation that ran with its outcome; Failed counts
// partial compensation (undo actions that themselves errored).
func (t *Tracker) AbortContext(ctx context.Context, id string) (*AbortReport, error) {
	t.mu.Lock()
	s, ok := t.active[id]
	if !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownTxn, id)
	}
	work := abortWork{state: *s, comps: t.comps[id]}
	delete(t.active, id)
	delete(t.comps, id)
	t.aborted++
	t.mu.Unlock()

	report := t.runCompensations(ctx, work)
	return report, nil
}

// runCompensations executes one abort's undo stack in reverse registration
// order, updating the tracker's accounting. Caller must not hold t.mu.
func (t *Tracker) runCompensations(ctx context.Context, w abortWork) *AbortReport {
	report := &AbortReport{ID: w.state.ID}
	for i := len(w.comps) - 1; i >= 0; i-- {
		c := w.comps[i]
		err := c.fn(ctx)
		report.Ran = append(report.Ran, CompensationResult{Step: c.step, Name: c.name, Err: err})
		if err != nil {
			report.Failed++
		}
	}
	t.mu.Lock()
	t.compsRun += len(report.Ran)
	t.compsFailed += report.Failed
	t.mu.Unlock()
	return report
}

// collectAbandonedLocked removes every transaction idle past the TTL and
// returns the abort work to finish outside the lock. Caller holds t.mu.
func (t *Tracker) collectAbandonedLocked(now time.Time) []abortWork {
	t.lastSweep = now
	var out []abortWork
	for id, s := range t.active {
		if now.Sub(s.LastSeen) <= t.ttl {
			continue
		}
		out = append(out, abortWork{state: *s, comps: t.comps[id]})
		delete(t.active, id)
		delete(t.comps, id)
		t.aborted++
		t.abandoned++
	}
	return out
}

// finishAborts runs compensations and abandonment callbacks for swept
// transactions. Caller must not hold t.mu.
func (t *Tracker) finishAborts(work []abortWork, abandoned bool) {
	if len(work) == 0 {
		return
	}
	t.mu.Lock()
	onAbandon := t.onAbandon
	t.mu.Unlock()
	for _, w := range work {
		t.runCompensations(context.Background(), w)
		if abandoned && onAbandon != nil {
			onAbandon(w.state)
		}
	}
}

// Sweep forces one abandonment sweep and returns the states it aborted. A
// no-op (nil) when SetTTL has not enabled sweeping.
func (t *Tracker) Sweep() []State {
	t.mu.Lock()
	if t.ttl <= 0 {
		t.mu.Unlock()
		return nil
	}
	work := t.collectAbandonedLocked(t.now())
	t.mu.Unlock()
	t.finishAborts(work, true)
	out := make([]State, 0, len(work))
	for _, w := range work {
		out = append(out, w.state)
	}
	return out
}

// Lookup returns a copy of a transaction's state.
func (t *Tracker) Lookup(id string) (*State, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.active[id]
	if !ok {
		return nil, false
	}
	cp := *s
	return &cp, true
}

// ActiveCount returns the number of in-flight transactions.
func (t *Tracker) ActiveCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}

// Stats returns (completed, aborted) totals. Abandoned transactions count as
// aborted.
func (t *Tracker) Stats() (completed, aborted int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.completed, t.aborted
}

// Abandoned returns how many transactions the TTL sweep has aborted.
func (t *Tracker) Abandoned() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.abandoned
}

// Snapshot returns the tracker's point-in-time state for /txnz, running a
// sweep first (when enabled) so the page never shows transactions that are
// already past their TTL.
func (t *Tracker) Snapshot() Snapshot {
	t.mu.Lock()
	var work []abortWork
	now := t.now()
	if t.ttl > 0 {
		work = t.collectAbandonedLocked(now)
	}
	t.mu.Unlock()
	t.finishAborts(work, true)

	t.mu.Lock()
	defer t.mu.Unlock()
	snap := Snapshot{
		Completed:           t.completed,
		Aborted:             t.aborted,
		Abandoned:           t.abandoned,
		CompensationsRun:    t.compsRun,
		CompensationsFailed: t.compsFailed,
		TTL:                 t.ttl,
	}
	for _, s := range t.active {
		snap.Active = append(snap.Active, ActiveTxn{
			ID:            s.ID,
			Step:          s.Step,
			Age:           now.Sub(s.Started),
			Idle:          now.Sub(s.LastSeen),
			Accesses:      s.Accesses,
			Compensations: s.Compensations,
		})
	}
	// Oldest first, then ID: deterministic /txnz rows.
	sort.Slice(snap.Active, func(i, j int) bool {
		if snap.Active[i].Age != snap.Active[j].Age {
			return snap.Active[i].Age > snap.Active[j].Age
		}
		return snap.Active[i].ID < snap.Active[j].ID
	})
	return snap
}

// EscalatedClass returns the effective QoS class for an access of the given
// base class at the given transaction step: each step beyond the first
// raises priority by one class (smaller number = higher priority), floored
// at class 1. Non-transactional accesses (step ≤ 1) keep their base class.
//
// This is the paper's "put more weight on those accesses whose transactions
// are in step 3 and selectively drop those whose transactions are in step 1
// if the load is high".
func EscalatedClass(base qos.Class, step int) qos.Class {
	if step <= 1 {
		return base
	}
	escalated := int(base) - (step - 1)
	if escalated < 1 {
		escalated = 1
	}
	return qos.Class(escalated)
}
