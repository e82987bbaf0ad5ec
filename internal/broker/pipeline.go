package broker

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/trace"
	"servicebroker/internal/txn"
)

// The request path: a request crosses the stages
//
//	escalate → idempotency → cache → coalesce → contract → admit → enqueue
//	         → (worker) dequeue → execute
//
// in order. A stage passes it on (returns nil) or decides its answer, and
// every answer goes through finish, the one place that accounts for it.
// Nothing here looks a metric up by name or formats a string; CI greps.

// flow is one request's state on its way through the stages.
type flow struct {
	ctx     context.Context
	req     *Request
	base    qos.Class // the caller's class once settled; contracts go by it
	class   qos.Class // effective class: base, escalated by the transaction step
	started time.Time
	tr      *trace.Active // nil when tracing is off

	// shareable marks an idempotent read: its answer may come from, and go
	// into, the result cache, and may be shared with identical requests in
	// flight. NoCache opts out; idempotency-keyed mutations never qualify.
	shareable bool
	key       string // cache key; empty until the cache stage

	ticket *txn.Ticket // owned idempotency slot, nil unless keyed
	flight *txn.Ticket // owned coalesce flight, nil unless coalescing

	queued, popped time.Time // zero until enqueued / dequeued by a worker
}

// job is a flow waiting in the priority queue for a worker.
type job struct {
	flow
	resp chan *Response
}

// jobs recycles jobs together with their reply channels. A job goes back
// only after its caller has received the reply: one whose caller gave up is
// left to the collector, since a worker still answers it.
var jobs = sync.Pool{New: func() any { return &job{resp: make(chan *Response, 1)} }}

// recycle returns a job whose reply has been received to the pool.
func recycle(j *job) {
	j.flow = flow{}
	jobs.Put(j)
}

// ErrBrokerClosed is returned by Handle after Close.
var ErrBrokerClosed = errors.New("broker: closed")

// Handle processes one request through the full broker pipeline and blocks
// until the response is ready (which, for dropped requests, is immediate).
func (b *Broker) Handle(ctx context.Context, req *Request) *Response {
	if req == nil {
		return &Response{Status: StatusError, Err: errors.New("broker: nil request")}
	}
	r := flow{ctx: ctx, req: req, class: req.Class, started: time.Now(),
		shareable: !req.NoCache && req.IdemKey == ""}
	if err := b.escalate(&r); err != nil {
		return &Response{Status: StatusError, Err: err}
	}
	// One trace per request when a recorder is attached. The stages annotate
	// it, here and on the worker goroutine; finish seals it.
	if b.tracer != nil {
		r.tr = b.tracer.Start(req.TraceID, b.name, int(r.class))
	}
	b.m.requests.Inc()
	b.m.forClass(r.class).requests.Inc()

	resp := b.idempotency(&r)
	if resp == nil {
		resp = b.lookup(&r)
	}
	if resp == nil {
		resp = b.coalesce(&r)
	}
	if resp == nil {
		resp = b.enforceContract(&r)
	}
	if resp == nil {
		resp = b.admit(&r)
	}
	if resp != nil {
		return b.finish(&r, resp)
	}
	return b.enqueue(&r)
}

// escalate settles the request's class, here and nowhere else: an invalid
// class, or one above the policy's class count, is the lowest class, and from
// there later transaction steps gain priority (paper §III). Every later stage
// — share, contract, queue, counters — sees 1..Classes.
func (b *Broker) escalate(r *flow) error {
	if !r.class.Valid() || int(r.class) > b.policy.Classes {
		r.class = qos.Class(b.policy.Classes)
	}
	r.base = r.class
	if b.tracker == nil || r.req.TxnID == "" {
		return nil
	}
	if _, err := b.tracker.Observe(r.req.TxnID, max(r.req.TxnStep, 1)); err != nil {
		return err
	}
	r.class = txn.EscalatedClass(r.class, r.req.TxnStep)
	return nil
}

// join runs the single-flight protocol on table t for key. The first arrival
// gets the owner ticket and proceeds; finish settles it. A later arrival gets
// the answer instead: the recorded outcome (replay), else the one the
// in-flight first execution settles with. An owner that settles without one
// (shed, errored, abandoned) sends its waiters back to acquire, to run for
// real rather than inherit a failure that may have been the owner's alone.
// waited reports that the request sat behind an owner at least once; each
// wait counts in waits.
func join(ctx context.Context, t *txn.IdemTable, key string, waits *metrics.Counter) (owner *txn.Ticket, resp *Response, replay, waited bool) {
	for {
		out, hit, tk := t.Acquire(key)
		if hit {
			return nil, answer(out), true, waited
		}
		if tk.Owner() {
			return tk, nil, false, waited
		}
		waits.Inc()
		waited = true
		out, ok, err := tk.Await(ctx)
		if err != nil {
			return nil, &Response{Status: StatusError, Err: err}, false, waited
		}
		if ok {
			return nil, answer(out), false, waited
		}
	}
}

// answer and outcome convert between a response and the table's record of it.
func answer(out txn.Outcome) *Response {
	return &Response{Status: Status(out.Status), Fidelity: out.Fidelity, Payload: out.Payload}
}

func outcome(resp *Response) txn.Outcome {
	return txn.Outcome{Status: int(resp.Status), Fidelity: resp.Fidelity, Payload: resp.Payload}
}

// idempotency answers a keyed access that already executed with its recorded
// first outcome, and coalesces one that is executing right now behind the
// first execution. Only the owner of the slot proceeds.
func (b *Broker) idempotency(r *flow) (resp *Response) {
	if b.idem == nil || r.req.TxnID == "" || r.req.IdemKey == "" {
		return nil
	}
	key := txn.IdemKey(r.req.TxnID, r.req.TxnStep, r.req.IdemKey)
	var replay bool
	r.ticket, resp, replay, _ = join(r.ctx, b.idem, key, b.m.idemCoalesced)
	switch {
	case replay:
		b.m.idemHits.Inc()
		r.tr.SetNote("idempotent replay")
	case resp != nil && resp.Err == nil:
		r.tr.SetNote("idempotent coalesce")
	}
	return resp
}

// lookup serves a fresh cache hit immediately, without consuming backend
// capacity (paper §III, "Caching of query results"). The cache's access hook
// is what feeds the hot-key tracker, so key frequency is measured at the
// cache; a request that does not consult it is recorded as a miss.
func (b *Broker) lookup(r *flow) *Response {
	r.key = string(r.req.Payload)
	if b.results == nil || !r.shareable {
		if b.hotkeys != nil {
			b.hotkeys.RecordAccess(r.key, false)
		}
		return nil
	}
	span := r.tr.StartSpan(trace.StageCache)
	body, ok := b.results.Get(r.key)
	if !ok {
		span.EndNote("miss")
		return nil
	}
	span.EndNote("hit")
	b.m.cacheHits.Inc()
	return &Response{Status: StatusOK, Fidelity: qos.FidelityCached, Payload: body}
}

// coalesce (WithCoalescing) makes a cache miss for a query that is already
// executing wait for the first execution's answer instead of spending its
// own backend trip.
func (b *Broker) coalesce(r *flow) (resp *Response) {
	if b.flights == nil || !r.shareable {
		return nil
	}
	span := r.tr.StartSpan(trace.StageCoalesce)
	var waited bool
	r.flight, resp, _, waited = join(r.ctx, b.flights, r.key, b.m.coalesced)
	if waited {
		span.EndNote("waited")
	}
	switch {
	case r.flight != nil:
		b.m.coalesceFlights.Inc()
	case resp.Err == nil:
		r.tr.SetNote("coalesced")
	}
	return resp
}

// enforceContract drops a request beyond its class's rate contract, even
// under light load (loosely coupled services).
func (b *Broker) enforceContract(r *flow) *Response {
	if c := b.contract[r.base]; c != nil && !c.Allow() {
		return b.refuse(r, StatusDropped, refusedContract)
	}
	return nil
}

// admit applies the binary forward/drop rule at the effective (possibly
// adaptive) threshold. An admitted request holds one unit of outstanding
// until release.
func (b *Broker) admit(r *flow) *Response {
	b.mu.Lock()
	closed, why := b.closed, refusal{}
	switch {
	case closed:
	case b.draining:
		why = refusedDraining
	case !b.policy.AdmitAt(r.class, b.outstanding, b.effectiveThreshold()):
		why = refusedThreshold
	default:
		b.outstanding++
	}
	outstanding := b.outstanding
	b.mu.Unlock()
	switch {
	case closed:
		return &Response{Status: StatusError, Err: ErrBrokerClosed}
	case why.body != nil:
		return b.refuse(r, StatusShed, why)
	}
	b.m.outstanding.Set(int64(outstanding))
	return nil
}

// release returns an admitted request's unit of outstanding.
func (b *Broker) release() {
	b.mu.Lock()
	b.outstanding--
	outstanding := b.outstanding
	b.mu.Unlock()
	b.m.outstanding.Set(int64(outstanding))
}

// enqueue hands an admitted request to the workers and waits for its answer.
// From here on the worker side owns the flow and finishes it.
func (b *Broker) enqueue(r *flow) *Response {
	j := jobs.Get().(*job)
	j.flow = *r
	j.queued = time.Now()
	if err := b.queue.Push(j.class, j); err != nil {
		b.release()
		resp := b.finish(&j.flow, &Response{Status: StatusError, Err: err})
		recycle(j)
		return resp
	}
	b.m.queueLen.Set(int64(b.queue.Len()))
	select {
	case resp := <-j.resp:
		recycle(j)
		return resp
	case <-r.ctx.Done():
		// The worker still runs the job (resp is buffered) and finishes it:
		// an effect that executes after the caller gave up is recorded, so
		// the caller's retry replays it. That is also why the job is not
		// recycled. Only the coalesce flight is let go now: its waiters must
		// not sit out this caller's queue wait, and their retry will hit the
		// cache the worker warms.
		j.flight.Cancel()
		return &Response{Status: StatusError, Err: r.ctx.Err()}
	}
}

// refusal is one reason the broker will not forward a request, with the
// busy message that names it.
type refusal struct {
	reason string
	body   []byte // BusyMessage + " (" + reason + ")"
}

func newRefusal(reason string) refusal {
	b := []byte(BusyMessage + " (" + reason + ")")
	// Every refusal for this reason answers with these bytes; capped, so a
	// caller that appends to its payload copies instead of writing here.
	return refusal{reason: reason, body: b[:len(b):len(b)]}
}

// The refusals, built once: under overload most requests get one.
var (
	refusedContract  = newRefusal("contract exceeded")
	refusedDraining  = newRefusal("draining")
	refusedThreshold = newRefusal("threshold exceeded")
)

// refuse builds the immediate low-fidelity answer for a request the broker
// will not forward: a cached result when one has appeared, else the busy
// message. StatusDropped is a policy decision retrying will not change;
// StatusShed is transient overload and carries a retry-after hint.
func (b *Broker) refuse(r *flow, status Status, why refusal) *Response {
	r.tr.SetNote(why.reason)
	resp := &Response{Status: status, Fidelity: qos.FidelityBusy}
	if status == StatusShed {
		resp.RetryAfter = b.retryAfterHint()
	}
	if b.results != nil && r.shareable {
		if body, ok := b.results.Get(r.key); ok {
			b.m.degradedReplies.Inc()
			resp.Fidelity, resp.Payload = qos.FidelityDegraded, body
			return resp
		}
	}
	b.m.busyReplies.Inc()
	resp.Payload = why.body
	return resp
}

// retryAfterHint scales a base backoff by queue pressure: the fuller the
// queue relative to the effective threshold, the longer shed clients are
// told to wait before retrying.
func (b *Broker) retryAfterHint() time.Duration {
	const (
		base    = 100 * time.Millisecond
		maxHint = 2 * time.Second
	)
	limit := max(b.effectiveThreshold(), 1)
	return min(base*time.Duration(1+b.queue.Len()/limit), maxHint)
}

// congested tells the adaptive limiter, when there is one, that the broker
// accepted more than it could serve in time.
func (b *Broker) congested() {
	if b.limiter != nil {
		b.limiter.Overload()
	}
}

// worker pops jobs in priority order and executes them on the backend.
func (b *Broker) worker() {
	defer b.wg.Done()
	for {
		j, _, err := b.queue.Pop()
		if err != nil {
			return // queue closed
		}
		resp := b.dequeue(j)
		if resp == nil {
			resp = b.execute(j)
		}
		b.release()
		j.resp <- b.finish(&j.flow, resp)
	}
}

// dequeue accounts for the queue wait, and refuses backend capacity to a
// request whose context died while it waited: its caller is gone.
func (b *Broker) dequeue(j *job) *Response {
	j.popped = time.Now()
	wait := j.popped.Sub(j.queued)
	id := uint64(j.tr.ID())
	j.tr.Span(trace.StageQueue, j.queued, j.popped, "")
	b.m.queueWait.ObserveTrace(wait, id)
	b.m.forClass(j.class).queueWait.ObserveTrace(wait, id)
	b.m.queueLen.Set(int64(b.queue.Len()))
	err := j.ctx.Err()
	if err == nil {
		return nil
	}
	b.m.expiredInQueue.Inc()
	b.congested()
	j.tr.SetNote("expired in queue")
	return &Response{Status: StatusError, Err: err}
}

// execute performs the backend access for one job, retrying under the
// resilience policy and degrading to a stale cached result when the backend
// stays unreachable.
func (b *Broker) execute(j *job) *Response {
	var (
		body []byte
		err  error
	)
	if b.retryer != nil {
		var attempts int
		body, attempts, err = b.retryer.Do(j.ctx,
			func(ctx context.Context) ([]byte, error) { return b.access(ctx, j) },
			func(attempt int, waited time.Duration, cause error) {
				now := time.Now()
				j.tr.Span(trace.StageRetry, now.Add(-waited), now,
					"attempt "+strconv.Itoa(attempt)+" after: "+cause.Error())
			})
		if attempts > 1 {
			b.m.retries.Add(int64(attempts - 1))
		}
	} else {
		body, err = b.access(j.ctx, j)
	}
	if b.limiter != nil {
		// Backend access time (retries and clustering wait included) is the
		// limiter's congestion signal; a failed access counts against the
		// limit even when a stale serve below still answers the client.
		b.limiter.Observe(time.Since(j.popped), err == nil)
	}
	cached := b.results != nil && j.shareable
	if err == nil {
		if cached {
			b.results.Put(j.key, body)
		}
		return &Response{Status: StatusOK, Fidelity: qos.FidelityFull, Payload: body}
	}
	b.m.backendErrors.Inc()
	// Degradation ladder's last usable rung: answer with the best data the
	// broker still holds, at low fidelity, before erroring. Never for
	// mutations — stale data is not an executed effect.
	if cached && b.serveStale {
		if stale, ok := b.results.GetStale(j.key); ok {
			b.m.degradedServes.Inc()
			j.tr.SetNote("stale cache after backend failure: " + err.Error())
			return &Response{Status: StatusOK, Fidelity: qos.FidelityLow, Payload: stale}
		}
	}
	return &Response{Status: StatusError, Err: err}
}

// access is one backend attempt, through the clustering batcher when
// enabled. The cluster span covers both waiting for batch companions and
// the combined backend access — the paper's "clustering delay".
func (b *Broker) access(ctx context.Context, j *job) ([]byte, error) {
	stage, note, hist, do := trace.StageBackend, "", b.m.backendRTT, b.do
	if b.batcher != nil {
		stage, note, hist, do = trace.StageCluster, "batched access", b.m.clusterTime, b.batcher.Submit
	}
	span := j.tr.StartSpan(stage)
	body, err := do(ctx, j.req.Payload)
	d := span.EndNote(note)
	hist.ObserveTrace(d, uint64(j.tr.ID()))
	return body, err
}

// finish accounts for a request's one disposition and returns resp.
func (b *Broker) finish(r *flow, resp *Response) *Response {
	now := time.Now()
	elapsed := now.Sub(r.started)
	id := uint64(r.tr.ID())
	k := b.m.forClass(r.class)

	status := "error"
	switch resp.Status {
	case StatusOK:
		status = "ok"
		b.m.completed.Inc()
		k.completed.Inc()
	case StatusDropped:
		status = "dropped"
		b.m.dropped.Inc()
		k.dropped.Inc()
	case StatusShed:
		status = "shed"
		b.m.shed.Inc()
		k.shed.Inc()
	default:
		k.errors.Inc()
	}

	refused := resp.Status == StatusDropped || resp.Status == StatusShed
	if b.hotkeys != nil && r.key != "" && !refused {
		b.hotkeys.RecordLatency(r.key, elapsed)
	}
	if !r.popped.IsZero() {
		processing := now.Sub(r.queued)
		b.m.processingTime.ObserveTrace(processing, id)
		k.processingTime.ObserveTrace(processing, id)
	}

	// Identical requests in flight share any usable answer, but never a
	// failure. The idempotency slot records only an executed effect — a
	// full-fidelity success; anything else releases it, so a retry runs for
	// real.
	if resp.Status == StatusOK {
		r.flight.Share(outcome(resp))
	} else {
		r.flight.Cancel()
	}
	if resp.Status == StatusOK && resp.Fidelity == qos.FidelityFull {
		r.ticket.Complete(outcome(resp))
	} else {
		r.ticket.Cancel()
	}
	// The trace is sealed last: once it reads finished, so does everything
	// else about the request.
	r.tr.SetStatus(status)
	r.tr.Finish()
	return resp
}
