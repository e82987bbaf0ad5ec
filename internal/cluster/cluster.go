// Package cluster implements the service broker's request clustering engine
// (paper §III "Accesses can be clustered and optimized" and the §V-A
// experiment). A Batcher gathers queued requests for one service, groups
// compatible ones up to a configurable degree of clustering, combines each
// group into a single backend access, and splits the combined response back
// to the individual issuers.
//
// Two combining strategies from the paper are provided:
//
//   - RepeatCombiner clusters identical database queries: the broker
//     "rewrite[s] the query command to notify the script to repeat the same
//     workload multiple times", and every issuer shares the one result.
//   - MGetCombiner clusters distinct web URIs into one MGET request and
//     splits the multipart response.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/httpserver"
	"servicebroker/internal/metrics"
	"servicebroker/internal/sqldb"
)

// Combiner merges compatible payloads into one backend payload and splits
// the combined response.
type Combiner interface {
	// CanCombine reports whether payload b may join a batch started by a.
	CanCombine(a, b []byte) bool
	// Combine merges the payloads of one batch into a single payload.
	Combine(payloads [][]byte) ([]byte, error)
	// Split distributes the combined response across the batch's issuers.
	Split(combined []byte, n int) ([][]byte, error)
}

// RepeatCombiner clusters byte-identical payloads (the paper's repeated
// database query). Combine wraps the query in a repeat directive sized to
// the batch; Split hands every issuer the shared result.
type RepeatCombiner struct{}

var _ Combiner = RepeatCombiner{}

// CanCombine implements Combiner: only identical queries cluster.
func (RepeatCombiner) CanCombine(a, b []byte) bool { return bytes.Equal(a, b) }

// Combine implements Combiner. A batch above sqldb.MaxRepeat is an error: the
// backend would not read its directive as one.
func (RepeatCombiner) Combine(payloads [][]byte) ([]byte, error) {
	if len(payloads) == 0 {
		return nil, errors.New("cluster: empty batch")
	}
	if len(payloads) > sqldb.MaxRepeat {
		return nil, fmt.Errorf("cluster: batch of %d exceeds the repeat directive's bound %d", len(payloads), sqldb.MaxRepeat)
	}
	return []byte(sqldb.RepeatQuery(string(payloads[0]), len(payloads))), nil
}

// Split implements Combiner: all issuers share the single result.
func (RepeatCombiner) Split(combined []byte, n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		out[i] = combined
	}
	return out, nil
}

// MGetCombiner clusters distinct single-URI payloads into one MGET payload
// (one URI per line, the backend.WebConnector syntax) and splits the
// multipart response.
type MGetCombiner struct{}

var _ Combiner = MGetCombiner{}

// CanCombine implements Combiner: any two single-line URI payloads combine.
func (MGetCombiner) CanCombine(a, b []byte) bool {
	return isSingleURI(a) && isSingleURI(b)
}

func isSingleURI(p []byte) bool {
	t := bytes.TrimSpace(p)
	return len(t) > 0 && t[0] == '/' && !bytes.ContainsRune(t, '\n')
}

// Combine implements Combiner.
func (MGetCombiner) Combine(payloads [][]byte) ([]byte, error) {
	if len(payloads) == 0 {
		return nil, errors.New("cluster: empty batch")
	}
	var b bytes.Buffer
	for i, p := range payloads {
		if !isSingleURI(p) {
			return nil, fmt.Errorf("cluster: payload %d is not a URI", i)
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.Write(bytes.TrimSpace(p))
	}
	return b.Bytes(), nil
}

// Split implements Combiner. A batch of one passed through as a raw body;
// larger batches decode the multipart MGET encoding.
func (MGetCombiner) Split(combined []byte, n int) ([][]byte, error) {
	if n == 1 {
		return [][]byte{combined}, nil
	}
	parts, err := httpserver.DecodeMGetParts(combined)
	if err != nil {
		return nil, err
	}
	if len(parts) != n {
		return nil, fmt.Errorf("cluster: %d parts for %d requests", len(parts), n)
	}
	out := make([][]byte, n)
	for i, p := range parts {
		if p.Status != 200 {
			return nil, fmt.Errorf("cluster: part %s status %d", p.URI, p.Status)
		}
		out[i] = p.Body
	}
	return out, nil
}

// Do performs the combined backend access for a batch.
type Do func(ctx context.Context, payload []byte) ([]byte, error)

// Batcher queues requests and dispatches them in clustered batches. Use
// NewBatcher; Close stops the dispatcher and fails queued requests.
type Batcher struct {
	do       Do
	combiner Combiner
	degree   int // configured (initial) degree
	maxWait  time.Duration
	reg      *metrics.Registry

	// curDegree is the live degree of clustering: equal to degree for a
	// static batcher, walked by the controller under WithAdaptiveDegree.
	curDegree atomic.Int32
	adaptive  *adaptiveController
	// waitPerUnit is the gather window per unit of degree, so the window
	// scales with the current degree (a bigger batch needs longer to fill).
	waitPerUnit time.Duration
	degreeGauge *metrics.Gauge

	mu     sync.Mutex
	queue  []*pending
	closed bool
	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}
	// execWG tracks in-flight batch executions, which run on their own
	// goroutines so independent batches proceed concurrently.
	execWG sync.WaitGroup
}

type pending struct {
	ctx     context.Context
	payload []byte
	// enq is the Submit time: the adaptive controller's samples are full
	// request sojourns (gather wait + backend queueing + service), because
	// that is the latency the U-curve is drawn in. Backend time alone
	// monotonically improves with degree (the handshake amortizes) and
	// would walk the controller to MaxDegree.
	enq  time.Time
	resp chan result
}

type result struct {
	body []byte
	err  error
}

// BatcherOption configures a Batcher.
type BatcherOption interface {
	apply(*Batcher)
}

type batcherOptionFunc func(*Batcher)

func (f batcherOptionFunc) apply(b *Batcher) { f(b) }

// WithMaxWait bounds how long the dispatcher waits for a batch to fill
// after the first request arrives (default 2 ms). Smaller values favour
// latency; larger values favour clustering degree.
func WithMaxWait(d time.Duration) BatcherOption {
	return batcherOptionFunc(func(b *Batcher) { b.maxWait = d })
}

// WithMetrics directs batcher counters into reg.
func WithMetrics(reg *metrics.Registry) BatcherOption {
	return batcherOptionFunc(func(b *Batcher) { b.reg = reg })
}

// WithAdaptiveDegree enables the self-tuning degree controller (see
// adaptive.go): the degree passed to NewBatcher becomes the starting point
// of a hill-climbing walk over [1, cfg.MaxDegree], and the
// gather window scales with the current degree. The live degree is exported
// as the "cluster_degree_current" gauge.
func WithAdaptiveDegree(cfg AdaptiveConfig) BatcherOption {
	return batcherOptionFunc(func(b *Batcher) { b.adaptive = &adaptiveController{cfg: cfg} })
}

// ErrBatcherClosed is returned for requests submitted after Close.
var ErrBatcherClosed = errors.New("cluster: batcher closed")

// NewBatcher creates a batcher dispatching through do with the given
// combiner and degree of clustering (maximum batch size). Degree 1 disables
// clustering (every request dispatches alone).
func NewBatcher(do Do, combiner Combiner, degree int, opts ...BatcherOption) (*Batcher, error) {
	if do == nil {
		return nil, errors.New("cluster: nil do")
	}
	if combiner == nil {
		return nil, errors.New("cluster: nil combiner")
	}
	if degree < 1 {
		return nil, fmt.Errorf("cluster: degree must be ≥ 1, got %d", degree)
	}
	b := &Batcher{
		do:       do,
		combiner: combiner,
		degree:   degree,
		maxWait:  2 * time.Millisecond,
		reg:      metrics.NewRegistry(),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, o := range opts {
		o.apply(b)
	}
	b.curDegree.Store(int32(degree))
	b.waitPerUnit = b.maxWait / time.Duration(degree)
	if b.adaptive != nil {
		if err := b.adaptive.init(degree); err != nil {
			return nil, err
		}
		b.curDegree.Store(int32(b.adaptive.cur))
	}
	b.degreeGauge = b.reg.Gauge("cluster_degree_current")
	b.degreeGauge.Set(int64(b.curDegree.Load()))
	go b.dispatchLoop()
	return b, nil
}

// Metrics returns the batcher registry: "batches", "clustered_requests",
// the "cluster_degree_current" gauge (live degree of clustering), and the
// "cluster_batch_size" histogram (sizes recorded in microsecond units for
// reuse of the duration histogram: size n is recorded as n µs).
func (b *Batcher) Metrics() *metrics.Registry { return b.reg }

// Degree returns the current degree of clustering: the configured value for
// a static batcher, the controller's live position under WithAdaptiveDegree.
func (b *Batcher) Degree() int { return int(b.curDegree.Load()) }

// gatherWait returns the batch-fill window for the current degree. A static
// batcher uses the configured maxWait unchanged; an adaptive one scales it
// linearly with the live degree, so a larger target batch is given
// proportionally longer to fill and a shrinking degree sheds gather latency.
func (b *Batcher) gatherWait() time.Duration {
	if b.adaptive == nil {
		return b.maxWait
	}
	return b.waitPerUnit * time.Duration(b.curDegree.Load())
}

// Submit queues one request and blocks until its response is available.
func (b *Batcher) Submit(ctx context.Context, payload []byte) ([]byte, error) {
	p := &pending{ctx: ctx, payload: payload, enq: time.Now(), resp: make(chan result, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrBatcherClosed
	}
	b.queue = append(b.queue, p)
	b.mu.Unlock()
	select {
	case b.kick <- struct{}{}:
	default:
	}
	select {
	case r := <-p.resp:
		return r.body, r.err
	case <-ctx.Done():
		// The dispatcher will still process the request; the issuer just
		// stops waiting (resp is buffered so the send cannot block).
		return nil, ctx.Err()
	}
}

// Close stops the dispatcher, failing queued requests with
// ErrBatcherClosed, and waits for the dispatch goroutine to exit.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	queued := b.queue
	b.queue = nil
	b.mu.Unlock()
	for _, p := range queued {
		p.resp <- result{err: ErrBatcherClosed}
	}
	close(b.stop)
	<-b.done
	b.execWG.Wait()
}

// dispatchLoop forms and executes batches until Close.
func (b *Batcher) dispatchLoop() {
	defer close(b.done)
	for {
		select {
		case <-b.stop:
			return
		case <-b.kick:
		}
		// A request has arrived; give the batch a short window to fill.
		if wait := b.gatherWait(); wait > 0 {
			deadline := time.NewTimer(wait)
		window:
			for {
				b.mu.Lock()
				full := len(b.queue) >= b.Degree()
				b.mu.Unlock()
				if full {
					break
				}
				select {
				case <-deadline.C:
					break window
				case <-b.stop:
					deadline.Stop()
					return
				case <-b.kick:
					// more arrivals; loop to re-check fullness
				}
			}
			deadline.Stop()
		}
		for b.dispatchOnce() {
		}
	}
}

// dispatchOnce takes one compatible batch off the queue and executes it,
// reporting whether more queued work remains.
func (b *Batcher) dispatchOnce() bool {
	b.mu.Lock()
	if len(b.queue) == 0 {
		b.mu.Unlock()
		return false
	}
	head := b.queue[0]
	batch := []*pending{head}
	rest := b.queue[:0]
	deg := b.Degree()
	for _, p := range b.queue[1:] {
		if len(batch) < deg && b.combiner.CanCombine(head.payload, p.payload) {
			batch = append(batch, p)
			continue
		}
		rest = append(rest, p)
	}
	// Zero the tail so popped requests are not pinned.
	for i := len(rest); i < len(b.queue); i++ {
		b.queue[i] = nil
	}
	b.queue = rest
	remaining := len(b.queue) > 0
	b.mu.Unlock()

	b.execWG.Add(1)
	go func() {
		defer b.execWG.Done()
		b.execute(batch)
	}()
	return remaining
}

// execute combines, performs, splits, and responds to one batch.
func (b *Batcher) execute(batch []*pending) {
	b.reg.Counter("batches").Inc()
	b.reg.Counter("clustered_requests").Add(int64(len(batch)))
	b.reg.Histogram("cluster_batch_size").Observe(time.Duration(len(batch)) * time.Microsecond)

	payloads := make([][]byte, len(batch))
	for i, p := range batch {
		payloads[i] = p.payload
	}
	fail := func(err error) {
		for _, p := range batch {
			p.resp <- result{err: err}
		}
	}
	combined, err := b.combiner.Combine(payloads)
	if err != nil {
		fail(err)
		return
	}
	body, err := b.do(batch[0].ctx, combined)
	if err != nil {
		fail(err)
		return
	}
	if b.adaptive != nil {
		var sojourn time.Duration
		for _, p := range batch {
			sojourn += time.Since(p.enq)
		}
		b.observeBatch(sojourn, len(batch))
	}
	parts, err := b.combiner.Split(body, len(batch))
	if err != nil {
		fail(err)
		return
	}
	for i, p := range batch {
		p.resp <- result{body: parts[i]}
	}
}

// observeBatch feeds one successful batch's summed request sojourn into the
// adaptive controller and publishes any degree change. Failed accesses are
// excluded: an error's latency says nothing about where the U-curve minimum
// sits.
func (b *Batcher) observeBatch(sojournSum time.Duration, size int) {
	if b.adaptive == nil {
		return
	}
	if deg, changed := b.adaptive.observe(sojournSum, size); changed {
		b.curDegree.Store(int32(deg))
		b.degreeGauge.Set(int64(deg))
	}
}
