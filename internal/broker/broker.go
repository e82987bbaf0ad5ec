// Package broker implements the paper's central contribution: the service
// broker, a per-service middleware agent between front-end web applications
// and a backend server (§III). Applications pass messages (query + QoS
// specification) to the broker instead of calling backend APIs; the broker
//
//   - maintains persistent, multiplexed connections to the backend
//     (amortizing the per-request setup cost of the API model),
//   - schedules queued requests strictly by QoS class and applies the
//     binary forward/drop threshold rule, answering shed requests
//     immediately with a low-fidelity response (§IV distributed model),
//   - clusters compatible requests into single backend accesses (§V-A),
//   - caches and prefetches query results,
//   - escalates the priority of later transaction steps,
//   - balances load across backend replicas, and
//   - detects hot spots and exposes load reports for the centralized
//     deployment model (§IV, Figure 4).
package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/cache"
	"servicebroker/internal/cluster"
	"servicebroker/internal/fleet"
	"servicebroker/internal/loadbalance"
	"servicebroker/internal/metrics"
	"servicebroker/internal/overload"
	"servicebroker/internal/qos"
	"servicebroker/internal/resilience"
	"servicebroker/internal/sketch"
	"servicebroker/internal/trace"
	"servicebroker/internal/txn"
)

// Request is one brokered service access.
type Request struct {
	// Payload is the service-specific query (SQL text, command line, URI).
	Payload []byte
	// Class is the request's QoS class, 1 (highest priority) to the broker's
	// class count. Anything else — zero, or a class above the count — is the
	// lowest class, settled once where the request enters (escalate).
	Class qos.Class
	// TxnID optionally tags the enclosing transaction.
	TxnID string
	// TxnStep is the 1-based step within the transaction.
	TxnStep int
	// IdemKey names this access's effect within the transaction step. With
	// WithIdempotency, a (TxnID, TxnStep, IdemKey) triple executes at most
	// once: retried or failed-over duplicates are answered with the recorded
	// first outcome instead of re-executing the backend effect. Empty means
	// the access is not idempotency-protected. Idempotency-keyed requests
	// bypass the result cache in both directions — a mutation must reach the
	// backend, and its outcome is not a cacheable query result.
	IdemKey string
	// NoCache bypasses the result cache for this request.
	NoCache bool
	// TraceID carries the end-to-end trace identifier assigned where the
	// request entered the system (normally the front end). Zero means
	// untraced; with WithTracer the broker assigns a fresh ID so its own
	// stages are still recorded.
	TraceID trace.ID
}

// Status is the broker's disposition of a request.
type Status int

// Request dispositions.
const (
	// StatusOK means the response carries a usable result.
	StatusOK Status = iota + 1
	// StatusDropped means the QoS policy shed the request (contract
	// exceeded): the client is out of spec, and retrying soon will not
	// help. The response is the adaptive low-fidelity message.
	StatusDropped
	// StatusError means the backend or broker failed.
	StatusError
	// StatusShed means overload control shed the request (threshold or
	// adaptive limit reached, or the broker is draining): the
	// condition is transient, and the response carries a retry-after hint.
	StatusShed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDropped:
		return "dropped"
	case StatusError:
		return "error"
	case StatusShed:
		return "shed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Response is the broker's reply.
type Response struct {
	Status   Status
	Fidelity qos.Fidelity
	Payload  []byte
	// RemoteSpans carries trace spans recorded by a remote broker and shipped
	// back on the wire (gateway Client only). The caller merges them into its
	// own trace so /tracez shows the cross-process tree.
	RemoteSpans []trace.Span
	// Broker identifies the gateway that answered (gateway Client only,
	// normally its UDP listen address): the stitching identity that lets a
	// failed-over request's spans from several pool members merge into one
	// trace. Empty on the response to an untraced request.
	Broker string
	// RetryAfter is the backpressure hint on StatusShed responses: how long
	// the client should wait before retrying. Zero means no hint.
	RetryAfter time.Duration
	// Err carries the failure for StatusError responses.
	Err error
}

// BusyMessage is the payload of a dropped request with no cached result —
// the paper's "indication that the system is busy".
const BusyMessage = "broker: system busy, request dropped"

// LoadReport is the broker's load summary, consumed by the centralized
// deployment model's listener thread.
type LoadReport struct {
	Service     string
	Outstanding int
	Threshold   int
	QueueLen    int
	Hot         bool
}

// Broker is the per-service agent. Use New; Close releases backend sessions
// and stops the worker and prefetch goroutines.
type Broker struct {
	name   string
	do     cluster.Do // the backend access path (pool or replica set)
	policy *qos.ThresholdPolicy
	reg    *metrics.Registry
	m      instruments     // handles into reg, resolved once in New
	tracer *trace.Recorder // nil unless WithTracer

	// optional machinery
	pool     *backend.Pool
	replicas *loadbalance.ReplicaSet
	results  *cache.Cache
	batcher  *cluster.Batcher
	tracker  *txn.Tracker
	contract map[qos.Class]*qos.Contract

	// The two uses of the single-flight table; a nil table disables the stage.
	idem    *txn.IdemTable // keyed mutations (WithIdempotency): outcomes remembered
	flights *txn.IdemTable // identical reads (WithCoalescing): outcomes only shared
	journal *txn.Journal   // OpenJournal's append handle; closed by Close

	// workload analytics (WithHotKeys)
	hotkeys *sketch.Tracker

	// fleet event timeline (WithFleetEvents); nil-safe, may stay nil
	events *fleet.Log

	// fault tolerance (WithResilience)
	resCfg     *resilience.Config
	retryer    *resilience.Retryer
	serveStale bool

	// overload control (WithAdaptiveLimit)
	limitCfg *overload.Config
	limiter  *overload.Limiter

	queue   *qos.Queue[*job]
	workers int

	mu          sync.Mutex
	outstanding int
	closed      bool
	draining    bool

	wg       sync.WaitGroup
	stopOnce sync.Once

	prefetch *prefetcher // built by WithPrefetch, started by New

	// option payloads that New can only act on once every option is known
	combiner    cluster.Combiner // nil unless WithClustering
	degree      int
	batcherOpts []cluster.BatcherOption // WithClustering's wait, WithAdaptiveDegree
	cacheCap    int                     // 0 unless WithCache
	cacheTTL    time.Duration
	replicaSpec *replicaSpec // nil unless WithReplicas
}

// replicaSpec records WithReplicas' arguments; New builds the replica set
// once WithResilience's breaker configuration is known.
type replicaSpec struct {
	policy     loadbalance.Policy
	capacity   int
	connectors []backend.Connector
}

// Option configures a Broker.
type Option func(*Broker) error

// WithThreshold sets the outstanding-request threshold and QoS class count
// (defaults: 20 and 3, the paper's values).
func WithThreshold(threshold, classes int) Option {
	return func(b *Broker) error {
		if threshold <= 0 || classes <= 0 || classes > int(qos.MaxClass) {
			return fmt.Errorf("broker: threshold must be positive and classes in 1..%d", qos.MaxClass)
		}
		b.policy = qos.NewThresholdPolicy(threshold, classes)
		return nil
	}
}

// WithWorkers sets the number of worker goroutines, i.e. concurrent
// persistent backend sessions (default 4).
func WithWorkers(n int) Option {
	return func(b *Broker) error {
		if n <= 0 {
			return errors.New("broker: workers must be positive")
		}
		b.workers = n
		return nil
	}
}

// WithCache enables result caching with the given capacity and TTL (ttl ≤ 0
// means entries never expire). The cache itself is built in New once all
// options are known, so WithHotKeys can attach its access hook regardless of
// option order.
func WithCache(capacity int, ttl time.Duration) Option {
	return func(b *Broker) error {
		if capacity <= 0 {
			return errors.New("broker: cache capacity must be positive")
		}
		b.cacheCap, b.cacheTTL = capacity, ttl
		return nil
	}
}

// WithHotKeys enables workload analytics (paper §III hot-spot detection):
// every cache access records the key's frequency and hit/miss into a
// fixed-memory lock-striped sketch tracker, and completed requests attribute
// their latency to tracked hot keys. The snapshot is surfaced via
// HotKeySnapshot (the obs /hotz page) and the hotkey_* gauges. A zero cfg
// selects the sketch defaults (top-64 keys, ~150 KiB).
func WithHotKeys(cfg sketch.Config) Option {
	return func(b *Broker) error {
		b.hotkeys = sketch.NewTracker(cfg)
		return nil
	}
}

// WithClustering enables request clustering with the given combiner and
// degree (maximum batch size).
func WithClustering(combiner cluster.Combiner, degree int, maxWait time.Duration) Option {
	return func(b *Broker) error {
		if combiner == nil {
			return errors.New("broker: nil combiner")
		}
		if degree < 1 {
			return errors.New("broker: clustering degree must be ≥ 1")
		}
		b.combiner, b.degree = combiner, degree
		if maxWait > 0 {
			b.batcherOpts = append(b.batcherOpts, cluster.WithMaxWait(maxWait))
		}
		return nil
	}
}

// WithAdaptiveDegree makes the clustering batcher self-tuning: the degree
// passed to WithClustering becomes the starting point of a hill-climbing
// walk over [1, cfg.MaxDegree] that tracks the response-time minimum as
// backend capacity shifts (the paper's Figure-7 U-curve). Must be
// combined with WithClustering; the live degree is exported as the
// "cluster_degree_current" gauge.
func WithAdaptiveDegree(cfg cluster.AdaptiveConfig) Option {
	return func(b *Broker) error {
		b.batcherOpts = append(b.batcherOpts, cluster.WithAdaptiveDegree(cfg))
		return nil
	}
}

// WithTransactions enables transaction tracking and step-based priority
// escalation. With no argument the broker keeps its own tracker, and counts
// the transactions that tracker's TTL sweep abandons (Tracker().SetTTL) in
// txn_abandoned_total. One shared tracker may be passed instead: the paper
// notes that "if service brokers are enabled to communicate with each other,
// they can exchange state information to ensure that transactions involving
// different backend servers are properly protected" — a step observed at one
// broker then escalates the transaction's later accesses at every broker. A
// shared tracker's TTL and abandon hook belong to whoever made it.
func WithTransactions(shared ...*txn.Tracker) Option {
	return func(b *Broker) error {
		switch {
		case len(shared) > 1:
			return errors.New("broker: at most one shared tracker")
		case len(shared) == 1 && shared[0] == nil:
			return errors.New("broker: nil shared tracker")
		case len(shared) == 1:
			b.tracker = shared[0]
		default:
			b.tracker = txn.NewTracker()
			abandoned := b.reg.Counter("txn_abandoned_total")
			b.tracker.OnAbandon(func(txn.State) { abandoned.Inc() })
		}
		return nil
	}
}

// WithIdempotency attaches a broker-side idempotency table: a request
// carrying a (TxnID, TxnStep, IdemKey) triple executes its backend effect at
// most once, and any duplicate — a wire retransmission to another socket, or
// a frontend pool failing the request over to another gateway of the same
// broker — is answered with the recorded first outcome. capacity ≤ 0
// selects txn.DefaultIdemCapacity; ttl ≤ 0 keeps outcomes until evicted by
// capacity. OpenJournal makes the recorded outcomes survive a restart.
func WithIdempotency(capacity int, ttl time.Duration) Option {
	return func(b *Broker) error {
		b.idem = txn.NewIdemTable(capacity, ttl)
		return nil
	}
}

// WithContract rate-limits one QoS class (the loosely coupled contract
// model): requests beyond the contract are dropped even under light load.
func WithContract(class qos.Class, rate float64, burst int) Option {
	return func(b *Broker) error {
		if !class.Valid() {
			return errors.New("broker: invalid contract class")
		}
		if b.contract == nil {
			b.contract = make(map[qos.Class]*qos.Contract)
		}
		b.contract[class] = qos.NewContract(rate, burst)
		return nil
	}
}

// WithCoalescing enables single-flight query coalescing ahead of the result
// cache: when an idempotent cacheable query misses the cache while an
// identical query is already executing, the duplicate waits for the first
// execution's answer instead of spending a second backend trip. N identical
// in-flight requests therefore cost one backend access — the read-side
// complement of the idempotency table's write coalescing. Requests with
// NoCache or an idempotency key (mutations) are never coalesced. Duplicates
// served this way increment coalesced_total and carry a "coalesce" trace
// stage; CoalesceStats and the obs /hotz page expose the accounting.
func WithCoalescing() Option {
	return func(b *Broker) error {
		b.flights = txn.NewIdemTable(0, 0)
		return nil
	}
}

// WithFleetEvents publishes the broker's operational transitions — AIMD
// admission-limit cuts, backend-replica breaker opens/closes, drain
// start/stop — into the fleet event timeline l (surfaced on /eventz). A
// single log is typically shared by every broker in the process.
func WithFleetEvents(l *fleet.Log) Option {
	return func(b *Broker) error {
		b.events = l
		return nil
	}
}

// WithTracer records one trace per handled request into rec, annotating the
// queue, cache, cluster, and backend stages plus the drop decision. A single
// recorder is typically shared by every broker in the process so /tracez can
// show the whole request path.
func WithTracer(rec *trace.Recorder) Option {
	return func(b *Broker) error {
		if rec == nil {
			return errors.New("broker: nil trace recorder")
		}
		b.tracer = rec
		return nil
	}
}

// WithReplicas routes backend accesses across replicated connectors under a
// load-balancing policy instead of a single connector. Every replica gets a
// circuit breaker (WithResilience's cfg.Breaker, else the defaults), so the
// load balancer fails over away from unhealthy replicas and probes them back
// in.
func WithReplicas(policy loadbalance.Policy, poolCapacity int, connectors ...backend.Connector) Option {
	return func(b *Broker) error {
		b.replicaSpec = &replicaSpec{policy: policy, capacity: poolCapacity, connectors: connectors}
		return nil
	}
}

// WithResilience wraps the backend access path in the fault-tolerance layer:
// session Do/Connect failures are retried under cfg.Retry's capped backoff
// within the request's deadline budget; with WithReplicas, cfg.Breaker
// configures every replica's circuit breaker; and with cfg.ServeStale
// plus WithCache, a request whose retries and replicas are exhausted is
// answered from stale cache state at qos.FidelityLow — the paper's immediate
// low-fidelity message — instead of an error.
func WithResilience(cfg resilience.Config) Option {
	return func(b *Broker) error {
		b.resCfg = &cfg
		return nil
	}
}

// WithAdaptiveLimit replaces the static admission threshold with an AIMD
// concurrency limiter (package overload): the effective threshold rises
// additively while backend completions stay healthy and is cut
// multiplicatively on latency-target breaches, backend failures, breaker
// opens, and queue expiries. The limiter's current value is what Load
// reports as Threshold, so centralized front-end admission adapts too.
// Zero-valued cfg fields default sensibly: Initial and Max default to the
// static threshold, so the limiter can only tighten the operator's guess.
func WithAdaptiveLimit(cfg overload.Config) Option {
	return func(b *Broker) error {
		b.limitCfg = &cfg
		return nil
	}
}

// WithPrefetch registers a periodic prefetcher: every interval, while the
// broker is below lowWater outstanding requests, each payload produced by
// source is fetched from the backend and cached (requires WithCache).
func WithPrefetch(interval time.Duration, lowWater int, source func() [][]byte) Option {
	return func(b *Broker) error {
		if interval <= 0 {
			return errors.New("broker: prefetch interval must be positive")
		}
		if source == nil {
			return errors.New("broker: nil prefetch source")
		}
		b.prefetch = &prefetcher{b: b, interval: interval, lowWater: lowWater, source: source,
			stopped: make(chan struct{}), done: make(chan struct{})}
		return nil
	}
}

// New creates a broker for one backend service. The connector is ignored
// when WithReplicas is given (pass nil in that case).
func New(connector backend.Connector, opts ...Option) (_ *Broker, err error) {
	b := &Broker{
		policy:  qos.NewThresholdPolicy(20, 3), // the paper's defaults
		reg:     metrics.NewRegistry(),
		workers: 4,
	}
	// A failed New owns nothing but the backend sessions opened so far.
	defer func() {
		if err != nil {
			b.closeBackend()
		}
	}()
	for _, o := range opts {
		if err := o(b); err != nil {
			return nil, err
		}
	}
	if b.prefetch != nil && b.cacheCap == 0 {
		return nil, errors.New("broker: WithPrefetch requires WithCache")
	}
	b.m = newInstruments(b)

	if b.cacheCap > 0 {
		copts := []cache.Option{cache.WithDefaultTTL(b.cacheTTL)}
		if b.hotkeys != nil {
			// The cache's access hook feeds the hot-key tracker.
			copts = append(copts, cache.WithAccessHook(b.hotkeys.RecordAccess))
		}
		b.results = cache.New(b.cacheCap, copts...)
	}

	switch {
	case b.replicaSpec != nil:
		if connector != nil {
			return nil, errors.New("broker: pass nil connector with WithReplicas")
		}
		var breaker resilience.BreakerConfig
		if b.resCfg != nil {
			breaker = b.resCfg.Breaker
		}
		spec := b.replicaSpec
		rs, err := loadbalance.NewReplicaSet(spec.policy, spec.capacity, breaker, b.breakerMoved, spec.connectors...)
		if err != nil {
			return nil, err
		}
		b.replicas = rs
		b.name = rs.Name()
		b.do = rs.Do
	case connector != nil:
		b.name = connector.Name()
		pool, err := backend.NewPool(connector, b.workers)
		if err != nil {
			return nil, err
		}
		b.pool = pool
		b.do = pool.Do
	default:
		return nil, errors.New("broker: nil connector")
	}

	if b.limitCfg != nil {
		cfg := *b.limitCfg
		if cfg.Initial <= 0 {
			cfg.Initial = b.policy.Threshold
		}
		if cfg.Max <= 0 {
			cfg.Max = max(b.policy.Threshold, cfg.Initial)
		}
		limiter, err := overload.NewLimiter(cfg)
		if err != nil {
			return nil, err
		}
		b.limiter = limiter
		gauge := b.reg.Gauge("limit_current")
		gauge.Set(int64(limiter.Limit()))
		prev := limiter.Limit()
		limiter.OnChange(func(n int) {
			gauge.Set(int64(n))
			// A downward move is a multiplicative AIMD cut — a congestion
			// signal worth a timeline entry; additive raises are routine.
			if n < prev {
				b.publish(fleet.KindLimitCut, "", fmt.Sprintf("admission limit cut %d -> %d", prev, n))
			}
			prev = n
		})
	}

	if b.resCfg != nil {
		b.retryer = resilience.NewRetryer(b.resCfg.Retry)
		b.serveStale = b.resCfg.ServeStale
	}

	if b.combiner != nil {
		b.batcher, err = cluster.NewBatcher(b.do, b.combiner, b.degree, append(b.batcherOpts, cluster.WithMetrics(b.reg))...)
		if err != nil {
			return nil, err
		}
		b.m.clusterTime = b.reg.Histogram("cluster_time")
	} else if len(b.batcherOpts) > 0 { // WithClustering refuses a nil combiner
		return nil, errors.New("broker: WithAdaptiveDegree requires WithClustering")
	}

	// Queue capacity = the largest effective threshold: admission control
	// guarantees at most that many outstanding, so the queue can never
	// overflow.
	capacity := b.policy.Threshold
	if b.limiter != nil {
		capacity = max(capacity, b.limiter.Snapshot().Max)
	}
	b.queue = qos.NewQueue[*job](capacity)
	for i := 0; i < b.workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}

	if b.prefetch != nil {
		b.m.prefetched = b.reg.Counter("prefetched")
		b.m.prefetchSkipped, b.m.prefetchErrors = b.reg.Counter("prefetch_skipped"), b.reg.Counter("prefetch_errors")
		go b.prefetch.run()
	}
	return b, nil
}

// Name returns the brokered service name.
func (b *Broker) Name() string { return b.name }

// Metrics returns the broker's registry. Per-class counters use names like
// "completed_class_1" and "dropped_class_2"; "cache_hits", "busy_replies",
// and the "processing_time" / "processing_time_class_N" histograms are also
// maintained.
func (b *Broker) Metrics() *metrics.Registry { return b.reg }

// Tracker returns the transaction tracker (nil unless WithTransactions).
func (b *Broker) Tracker() *txn.Tracker { return b.tracker }

// IdemStats returns the idempotency table's accounting; ok is false when the
// broker runs without an idempotency table. The obs /txnz page renders these.
func (b *Broker) IdemStats() (txn.IdemStats, bool) {
	if b.idem == nil {
		return txn.IdemStats{}, false
	}
	return b.idem.Stats(), true
}

// OpenJournal makes the idempotency table's recorded outcomes crash-safe. It
// restores the journal at path into the table, so a restarted broker answers
// replayed keys without re-executing, then appends every newly recorded
// outcome to it. An append that fails is counted in txn_journal_errors_total
// and published on the fleet timeline; the outcome still stands in memory.
// Call it before the broker serves; Close closes the journal once the
// workers have stopped. It returns how many outcomes were restored.
func (b *Broker) OpenJournal(path string) (int, error) {
	if b.idem == nil {
		return 0, errors.New("broker: OpenJournal requires WithIdempotency")
	}
	if b.journal != nil {
		return 0, errors.New("broker: journal already open")
	}
	restored, err := txn.RestoreTable(path, b.idem)
	if err != nil {
		return 0, err
	}
	j, err := txn.OpenJournal(path, false)
	if err != nil {
		return 0, err
	}
	b.journal = j
	failures := b.reg.Counter("txn_journal_errors_total")
	b.idem.OnRecord(func(key string, out txn.Outcome) {
		if err := j.AppendOutcome(key, out); err != nil {
			failures.Inc()
			b.publish(fleet.KindJournalError, "", "idempotency journal append failed: "+err.Error())
		}
	})
	return restored, nil
}

// breakerMoved observes a replica breaker's transition. Breaker state is
// mirrored into the registry so /metrics shows it: gauge value 0 = closed,
// 1 = half-open, 2 = open.
func (b *Broker) breakerMoved(replica int, name string, from, to resilience.State) {
	b.reg.Gauge(fmt.Sprintf("breaker_state_replica_%d", replica)).Set(int64(to))
	if to == resilience.StateOpen {
		b.reg.Counter("breaker_opens_total").Inc()
		// An opening breaker means a replica is failing: that is a
		// congestion signal for admission too.
		b.congested()
		b.publish(fleet.KindBreakerOpen, name,
			fmt.Sprintf("backend replica %d breaker opened (%s -> %s)", replica, from, to))
	}
	if from == resilience.StateHalfOpen && to == resilience.StateClosed {
		b.publish(fleet.KindBreakerClose, name,
			fmt.Sprintf("backend replica %d probe succeeded, breaker closed", replica))
	}
}

// BreakerSnapshots returns the per-replica circuit-breaker states, or nil
// without WithReplicas. The obs admin server's /breakerz page renders these.
func (b *Broker) BreakerSnapshots() []resilience.Snapshot {
	if b.replicas == nil {
		return nil
	}
	return b.replicas.BreakerSnapshots()
}

// CacheStats returns result-cache statistics (zero Stats when caching is
// disabled).
func (b *Broker) CacheStats() cache.Stats {
	if b.results == nil {
		return cache.Stats{}
	}
	return b.results.Stats()
}

// ClusterDegree returns the live degree of clustering: the configured value
// for a static batcher, the controller's current position under
// WithAdaptiveDegree, and 0 when clustering is disabled.
func (b *Broker) ClusterDegree() int {
	if b.batcher == nil {
		return 0
	}
	return b.batcher.Degree()
}

// Load returns the broker's current load report. With WithAdaptiveLimit the
// Threshold field carries the limiter's current value, so centralized
// admission at the front end tracks measured capacity, not the static flag.
func (b *Broker) Load() LoadReport {
	b.mu.Lock()
	outstanding := b.outstanding
	b.mu.Unlock()
	threshold := b.effectiveThreshold()
	return LoadReport{
		Service:     b.name,
		Outstanding: outstanding,
		Threshold:   threshold,
		QueueLen:    b.queue.Len(),
		Hot:         float64(outstanding) >= hotFraction*float64(threshold),
	}
}

// hotFraction of the effective threshold outstanding marks the broker a hot
// spot in its load reports (paper §III hot-spot detection).
const hotFraction = 0.9

// effectiveThreshold returns the admission threshold currently in force:
// the adaptive limiter's value when configured, else the static policy's.
func (b *Broker) effectiveThreshold() int {
	if b.limiter != nil {
		return b.limiter.Limit()
	}
	return b.policy.Threshold
}

// LimitSnapshot returns the adaptive limiter's state; ok is false when the
// broker runs on a static threshold. The obs /limitz page renders these.
func (b *Broker) LimitSnapshot() (overload.Snapshot, bool) {
	if b.limiter == nil {
		return overload.Snapshot{}, false
	}
	return b.limiter.Snapshot(), true
}

// HotKeySnapshot returns the merged hot-key view; ok is false unless
// WithHotKeys is configured. Each call also refreshes the hotkey_* gauges,
// so periodic scrapers (obs, tsdb probes) keep them current.
func (b *Broker) HotKeySnapshot() (sketch.Snapshot, bool) {
	if b.hotkeys == nil {
		return sketch.Snapshot{}, false
	}
	snap := b.hotkeys.Snapshot()
	b.reg.Gauge("hotkey_tracked").Set(int64(len(snap.Keys)))
	b.reg.Gauge("hotkey_skew_x100").Set(int64(snap.Skew * 100))
	b.reg.Gauge("hotkey_memory_bytes").Set(int64(snap.MemoryBytes))
	b.reg.Gauge("hotkey_top10_share_x100").Set(int64(snap.TopShare(10) * 100))
	return snap, true
}

// CoalesceStats returns the single-flight coalescing accounting; ok is
// false unless WithCoalescing is configured. Each call also refreshes the
// coalesce_inflight gauge for periodic scrapers.
func (b *Broker) CoalesceStats() (CoalesceStats, bool) {
	if b.flights == nil {
		return CoalesceStats{}, false
	}
	st := b.flights.Stats()
	b.reg.Gauge("coalesce_inflight").Set(int64(st.Size))
	return CoalesceStats{Flights: st.Flights, Coalesced: st.Coalesced, Shared: st.Shared, Inflight: st.Size}, true
}

// CoalesceStats is the coalescing stage's point-in-time accounting for
// /hotz, metrics, and the throughput experiment.
type CoalesceStats struct {
	Flights   int64 // backend-bound first executions
	Coalesced int64 // duplicate requests that waited on a flight
	Shared    int64 // waiters answered from the owner's response
	Inflight  int   // currently open flights
}

// publish puts one of the broker's operational transitions on the fleet
// event timeline (a nil log drops it); member names a backend replica.
func (b *Broker) publish(kind fleet.Kind, member, detail string) {
	b.events.Publish(fleet.Event{Kind: kind, Service: b.name, Member: member, Detail: detail})
}

// Drain puts the broker into drain mode and waits for accepted work to
// finish. New requests are shed immediately with a retry-after hint while
// already-admitted requests run to completion; Drain returns nil once
// outstanding work reaches zero, or ctx.Err() at the deadline with work
// still in flight. Callers normally Close the broker afterwards — the
// graceful-shutdown sequence is Drain then Close.
func (b *Broker) Drain(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	b.publish(fleet.KindDrainStart, "", "drain started: shedding new requests, finishing accepted work")
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if b.Load().Outstanding == 0 {
			b.publish(fleet.KindDrainStop, "", "drain finished: no work outstanding")
			return nil
		}
		select {
		case <-ctx.Done():
			b.publish(fleet.KindDrainStop, "", "drain deadline passed with work still outstanding")
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close stops the prefetcher, workers, and batcher, releases backend
// sessions, and closes the journal. In-flight jobs complete first.
func (b *Broker) Close() error {
	var err error
	b.stopOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		if b.prefetch != nil {
			b.prefetch.stop()
		}
		b.queue.Close()
		b.wg.Wait()
		if b.batcher != nil {
			b.batcher.Close()
		}
		err = b.closeBackend()
		if b.journal != nil {
			err = errors.Join(err, b.journal.Close())
		}
	})
	return err
}

// closeBackend releases the backend sessions: the pool's or the replicas'.
func (b *Broker) closeBackend() error {
	switch {
	case b.pool != nil:
		return b.pool.Close()
	case b.replicas != nil:
		return b.replicas.Close()
	}
	return nil
}
