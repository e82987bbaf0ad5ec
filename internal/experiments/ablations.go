package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"servicebroker/internal/apimodel"
	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/loadbalance"
	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/registry"
	"servicebroker/internal/resilience"
	"servicebroker/internal/workload"
)

// The ablation experiments quantify design choices the paper argues
// qualitatively in §III: persistent connections, result caching,
// prefetching, and broker-side load balancing.

// ConnectionAblationResult compares per-request connections (the API model)
// against broker-held persistent connections.
type ConnectionAblationResult struct {
	ConnectCost time.Duration `json:"connect_cost_ns"`
	APIMean     time.Duration `json:"api_mean_ns"`
	BrokerMean  time.Duration `json:"broker_mean_ns"`
	// APIConnects counts the API model's connection establishments.
	APIConnects int64 `json:"api_connects"`
}

// RunConnectionAblation measures both access models over a backend whose
// connection setup costs connectCost.
func RunConnectionAblation(ctx context.Context, connectCost time.Duration, requests int) (*ConnectionAblationResult, error) {
	mk := func(name string) *backend.DelayConnector {
		return &backend.DelayConnector{ServiceName: name, ConnectTime: connectCost}
	}

	api, err := apimodel.New(mk("api"))
	if err != nil {
		return nil, err
	}
	apiRes, err := workload.ClosedLoop{Concurrency: 4, Requests: requests}.Run(ctx,
		func(ctx context.Context, _, _ int) (qos.Fidelity, error) {
			if _, err := api.Do(ctx, []byte("q")); err != nil {
				return 0, err
			}
			return qos.FidelityFull, nil
		})
	if err != nil {
		return nil, err
	}

	b, err := broker.New(mk("brokered"), broker.WithThreshold(64, 1), broker.WithWorkers(4))
	if err != nil {
		return nil, err
	}
	defer b.Close()
	brokerRes, err := workload.ClosedLoop{Concurrency: 4, Requests: requests}.Run(ctx,
		func(ctx context.Context, _, _ int) (qos.Fidelity, error) {
			resp := b.Handle(ctx, &broker.Request{Payload: []byte("q"), Class: qos.Class1, NoCache: true})
			if resp.Err != nil {
				return 0, resp.Err
			}
			return resp.Fidelity, nil
		})
	if err != nil {
		return nil, err
	}

	return &ConnectionAblationResult{
		ConnectCost: connectCost,
		APIMean:     apiRes.Latency.Mean(),
		BrokerMean:  brokerRes.Latency.Mean(),
		APIConnects: api.Metrics().Counter("connects").Value(),
	}, nil
}

// CacheAblationResult compares a hot-spot workload with and without the
// broker's result cache (the paper's movie-schedule scenario).
type CacheAblationResult struct {
	UncachedMean    time.Duration `json:"uncached_mean_ns"`
	CachedMean      time.Duration `json:"cached_mean_ns"`
	UncachedBackend int64         `json:"uncached_backend_queries"`
	CachedBackend   int64         `json:"cached_backend_queries"`
	HitRatio        float64       `json:"hit_ratio"`
}

// RunCacheAblation drives a Zipf-ish workload (hotFraction of requests hit
// hotKeys distinct queries) against a backend that takes queryCost per
// query, with caching off and on.
func RunCacheAblation(ctx context.Context, queryCost time.Duration, requests, hotKeys int, hotFraction float64) (*CacheAblationResult, error) {
	if hotKeys < 1 || hotFraction < 0 || hotFraction > 1 {
		return nil, fmt.Errorf("experiments: bad cache ablation parameters")
	}
	// The workload target runs on several client goroutines; math/rand.Rand
	// is not concurrency-safe, so guard it.
	var rngMu sync.Mutex
	payload := func(rng *rand.Rand) []byte {
		rngMu.Lock()
		defer rngMu.Unlock()
		if rng.Float64() < hotFraction {
			return []byte(fmt.Sprintf("SELECT schedule FROM movies WHERE id = %d", rng.Intn(hotKeys)))
		}
		return []byte(fmt.Sprintf("SELECT schedule FROM movies WHERE id = %d", hotKeys+rng.Intn(1_000_000)))
	}

	run := func(withCache bool) (time.Duration, int64, float64, error) {
		conn := &backend.DelayConnector{ServiceName: "moviedb", ProcessTime: queryCost}
		opts := []broker.Option{broker.WithThreshold(64, 1), broker.WithWorkers(8)}
		if withCache {
			opts = append(opts, broker.WithCache(4096, 0))
		}
		b, err := broker.New(conn, opts...)
		if err != nil {
			return 0, 0, 0, err
		}
		defer b.Close()
		rng := rand.New(rand.NewSource(7))
		res, err := workload.ClosedLoop{Concurrency: 8, Requests: requests}.Run(ctx,
			func(ctx context.Context, _, _ int) (qos.Fidelity, error) {
				resp := b.Handle(ctx, &broker.Request{Payload: payload(rng), Class: qos.Class1})
				if resp.Err != nil {
					return 0, resp.Err
				}
				return resp.Fidelity, nil
			})
		if err != nil {
			return 0, 0, 0, err
		}
		// "backend_rtt" times every backend access — cache hits return
		// before reaching the backend — so its count is exactly the backend
		// query count.
		return res.Latency.Mean(), b.Metrics().Histogram("backend_rtt").Count(),
			b.CacheStats().HitRatio(), nil
	}

	uncachedMean, uncachedBackend, _, err := run(false)
	if err != nil {
		return nil, err
	}
	cachedMean, cachedBackend, hitRatio, err := run(true)
	if err != nil {
		return nil, err
	}
	return &CacheAblationResult{
		UncachedMean:    uncachedMean,
		CachedMean:      cachedMean,
		UncachedBackend: uncachedBackend,
		CachedBackend:   cachedBackend,
		HitRatio:        hitRatio,
	}, nil
}

// LoadBalanceMean is one balancing policy's mean response time on
// heterogeneous replicas.
type LoadBalanceMean struct {
	Policy string        `json:"policy"`
	Mean   time.Duration `json:"mean_ns"`
}

// RunLoadBalanceComparison drives the same workload through a fast and a
// slow replica under each policy and returns the means in the order the
// policies ran.
func RunLoadBalanceComparison(ctx context.Context, requests int) ([]LoadBalanceMean, error) {
	policies := []loadbalance.Policy{
		&loadbalance.RoundRobin{},
		loadbalance.LeastOutstanding{},
		loadbalance.NewRandom(11),
	}
	out := make([]LoadBalanceMean, 0, len(policies))
	for _, policy := range policies {
		fast := &backend.DelayConnector{ServiceName: "fast", ProcessTime: 2 * time.Millisecond}
		slow := &backend.DelayConnector{ServiceName: "slow", ProcessTime: 12 * time.Millisecond}
		b, err := broker.New(nil,
			broker.WithReplicas(policy, 8, fast, slow),
			broker.WithThreshold(64, 1), broker.WithWorkers(8))
		if err != nil {
			return nil, err
		}
		res, err := workload.ClosedLoop{Concurrency: 8, Requests: requests}.Run(ctx,
			func(ctx context.Context, _, _ int) (qos.Fidelity, error) {
				resp := b.Handle(ctx, &broker.Request{Payload: []byte("q"), Class: qos.Class1, NoCache: true})
				if resp.Err != nil {
					return 0, resp.Err
				}
				return resp.Fidelity, nil
			})
		b.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, LoadBalanceMean{Policy: policy.Name(), Mean: res.Latency.Mean()})
	}
	return out, nil
}

// ModelComparisonResult compares the two deployment models of §IV.
type ModelComparisonResult struct {
	// DistributedMean and CentralizedMean are per-request latencies under
	// light load (the centralized model's admission check is extra work on
	// every request).
	DistributedMean time.Duration `json:"distributed_mean_ns"`
	CentralizedMean time.Duration `json:"centralized_mean_ns"`
	// CentralizedAborts counts requests the centralized model rejected up
	// front during an overload episode; the distributed model forwards
	// everything and lets brokers shed.
	CentralizedAborts int64 `json:"centralized_aborts"`
	// ListenerUpdates counts lease datagrams the centralized model's
	// listener thread applied (its scalability cost).
	ListenerUpdates int `json:"listener_updates"`
}

// RunModelComparison builds both front ends over the same broker gateway
// and measures light-load request cost, then overload behaviour.
func RunModelComparison(ctx context.Context, requests int) (*ModelComparisonResult, error) {
	mkStack := func() (*broker.Broker, *broker.Gateway, error) {
		// 4 slots × 5ms ⇒ the backend serves 800 req/s; the overload
		// episode's hold stream (2000 req/s) saturates it decisively.
		b, err := broker.New(
			&backend.DelayConnector{ServiceName: "db", ProcessTime: 5 * time.Millisecond, MaxConcurrent: 4},
			broker.WithThreshold(8, 2), broker.WithWorkers(8))
		if err != nil {
			return nil, nil, err
		}
		g, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{"db": b})
		if err != nil {
			b.Close()
			return nil, nil, err
		}
		return b, g, nil
	}
	routes := []frontend.Route{{Pattern: "/db", Service: "db", DefaultClass: qos.Class1}}

	// Distributed model.
	b1, g1, err := mkStack()
	if err != nil {
		return nil, err
	}
	defer b1.Close()
	defer g1.Close()
	dist, err := frontend.NewDistributed("127.0.0.1:0", g1.Addr().String(), routes)
	if err != nil {
		return nil, err
	}
	defer dist.Close()
	distMean, err := driveFrontend(ctx, dist.Addr(), requests)
	if err != nil {
		return nil, err
	}

	// Centralized model with the broker's lease feeding its listener thread.
	b2, g2, err := mkStack()
	if err != nil {
		return nil, err
	}
	defer b2.Close()
	defer g2.Close()
	profiles := map[string][]frontend.Demand{"/db": {{Service: "db", Weight: 1}}}
	cent, err := frontend.NewCentralized("127.0.0.1:0", g2.Addr().String(), "127.0.0.1:0", routes, profiles)
	if err != nil {
		return nil, err
	}
	defer cent.Close()
	lease, err := registry.NewRegistrar(registry.RegistrarConfig{
		Service: "db", Addr: g2.Addr().String(), Target: cent.ListenerAddr(),
		Interval: 5 * time.Millisecond, Load: b2.Load,
	})
	if err != nil {
		return nil, err
	}
	defer lease.Close()
	time.Sleep(20 * time.Millisecond) // first lease
	centMean, err := driveFrontend(ctx, cent.Addr(), requests)
	if err != nil {
		return nil, err
	}

	// Overload episode: a continuous stream of class-1 holds keeps the
	// broker at its threshold while doomed requests arrive; the centralized
	// model aborts them at the web server as soon as a lease renewal shows
	// the overload.
	var hold sync.WaitGroup
	stop := make(chan struct{})
	hold.Add(1)
	go func() {
		defer hold.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			hold.Add(1)
			go func(i int) {
				defer hold.Done()
				b2.Handle(ctx, &broker.Request{
					Payload: []byte(fmt.Sprintf("hold%d", i)), Class: qos.Class1, NoCache: true,
				})
			}(i)
			time.Sleep(500 * time.Microsecond)
		}
	}()
	cli := httpserver.NewClient(cent.Addr())
	deadline := time.Now().Add(2 * time.Second)
	for cent.Metrics().Counter("aborted").Value() == 0 && time.Now().Before(deadline) {
		cli.Get("/db", map[string]string{"q": "doomed", "qos": "2"})
		time.Sleep(2 * time.Millisecond)
	}
	cli.Close()
	close(stop)
	hold.Wait()

	return &ModelComparisonResult{
		DistributedMean:   distMean,
		CentralizedMean:   centMean,
		CentralizedAborts: cent.Metrics().Counter("aborted").Value(),
		ListenerUpdates:   cent.ListenerUpdates(),
	}, nil
}

// driveFrontend issues sequential light-load requests and returns the mean.
func driveFrontend(ctx context.Context, addr string, requests int) (time.Duration, error) {
	cli := httpserver.NewClient(addr, httpserver.WithPersistent(1))
	defer cli.Close()
	var hist metrics.Histogram
	for i := 0; i < requests; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		resp, err := cli.Get("/db", map[string]string{"q": fmt.Sprintf("q%d", i), "qos": "1"})
		if err != nil {
			return 0, err
		}
		if resp.Status != 200 {
			return 0, fmt.Errorf("experiments: frontend status %d: %s", resp.Status, resp.Body)
		}
		hist.Observe(time.Since(t0))
	}
	return hist.Mean(), nil
}

// PrefetchAblationResult compares a periodically-updated content source
// (the paper's news-headline scenario) with and without broker prefetching.
type PrefetchAblationResult struct {
	NoPrefetchMean time.Duration `json:"no_prefetch_mean_ns"`
	PrefetchMean   time.Duration `json:"prefetch_mean_ns"`
	NoPrefetchHit  float64       `json:"no_prefetch_hit_ratio"`
	PrefetchHit    float64       `json:"prefetch_hit_ratio"`
	Prefetched     int64         `json:"prefetched"`
}

// RunPrefetchAblation models a news site: the backend takes fetchCost per
// request and its content expires from the cache every ttl; readers arrive
// in periodic bursts. With prefetching the broker re-fetches headlines
// during the idle gaps, so bursts never pay the backend latency.
func RunPrefetchAblation(ctx context.Context, fetchCost time.Duration, bursts, perBurst int) (*PrefetchAblationResult, error) {
	if bursts <= 0 || perBurst <= 0 {
		return nil, fmt.Errorf("experiments: bursts and perBurst must be positive")
	}
	const (
		ttl         = 40 * time.Millisecond
		burstGap    = 50 * time.Millisecond
		prefetchEvy = 10 * time.Millisecond
	)
	run := func(withPrefetch bool) (time.Duration, float64, int64, error) {
		conn := &backend.DelayConnector{ServiceName: "news", ProcessTime: fetchCost}
		opts := []broker.Option{
			broker.WithThreshold(16, 1),
			broker.WithWorkers(2),
			broker.WithCache(16, ttl),
		}
		if withPrefetch {
			opts = append(opts, broker.WithPrefetch(prefetchEvy, 4, func() [][]byte {
				return [][]byte{[]byte("/headlines")}
			}))
		}
		b, err := broker.New(conn, opts...)
		if err != nil {
			return 0, 0, 0, err
		}
		defer b.Close()

		var hist metrics.Histogram
		for burst := 0; burst < bursts; burst++ {
			for i := 0; i < perBurst; i++ {
				if err := ctx.Err(); err != nil {
					return 0, 0, 0, err
				}
				t0 := time.Now()
				resp := b.Handle(ctx, &broker.Request{Payload: []byte("/headlines"), Class: qos.Class1})
				if resp.Err != nil {
					return 0, 0, 0, resp.Err
				}
				hist.Observe(time.Since(t0))
			}
			time.Sleep(burstGap)
		}
		return hist.Mean(), b.CacheStats().HitRatio(),
			b.Metrics().Counter("prefetched").Value(), nil
	}

	noMean, noHit, _, err := run(false)
	if err != nil {
		return nil, err
	}
	yesMean, yesHit, prefetched, err := run(true)
	if err != nil {
		return nil, err
	}
	return &PrefetchAblationResult{
		NoPrefetchMean: noMean,
		PrefetchMean:   yesMean,
		NoPrefetchHit:  noHit,
		PrefetchHit:    yesHit,
		Prefetched:     prefetched,
	}, nil
}

// FailoverAblationResult compares a baseline broker (no fault tolerance)
// against a resilient one (retries + per-replica breakers) when one of
// three replicas dies mid-run.
type FailoverAblationResult struct {
	// BaselineErrors / ResilientErrors count requests answered StatusError.
	BaselineErrors  int `json:"baseline_errors"`
	ResilientErrors int `json:"resilient_errors"`
	// BaselineOK / ResilientOK count full-fidelity successes.
	BaselineOK  int `json:"baseline_ok"`
	ResilientOK int `json:"resilient_ok"`
	// BreakerOpens is the resilient arm's breaker_opens_total.
	BreakerOpens int64 `json:"breaker_opens"`
}

// RunFailoverAblation sends sequential requests through three replicas,
// killing replica 0 after a third of them. The baseline arm keeps routing
// to the dead replica (least-outstanding ties break toward it), so its
// errors quantify what the resilience layer removes; the resilient arm must
// hide the failure entirely behind retry + breaker failover.
func RunFailoverAblation(ctx context.Context, requests int) (*FailoverAblationResult, error) {
	if requests < 3 {
		return nil, fmt.Errorf("experiments: failover ablation needs ≥ 3 requests")
	}
	run := func(resilient bool) (okCount, errCount int, opens int64, err error) {
		faults := make([]*backend.FaultConnector, 3)
		connectors := make([]backend.Connector, 3)
		for i := range faults {
			faults[i] = &backend.FaultConnector{
				Inner: &backend.DelayConnector{ServiceName: "db", ProcessTime: time.Millisecond},
			}
			connectors[i] = faults[i]
		}
		opts := []broker.Option{
			broker.WithReplicas(loadbalance.LeastOutstanding{}, 2, connectors...),
			broker.WithThreshold(16, 1),
			broker.WithWorkers(2),
		}
		if resilient {
			opts = append(opts, broker.WithResilience(resilience.Config{
				Retry:   resilience.RetryConfig{MaxAttempts: 4, BaseDelay: time.Millisecond},
				Breaker: resilience.BreakerConfig{FailureThreshold: 3, Cooldown: time.Minute},
			}))
		}
		b, err := broker.New(nil, opts...)
		if err != nil {
			return 0, 0, 0, err
		}
		defer b.Close()
		for i := 0; i < requests; i++ {
			if err := ctx.Err(); err != nil {
				return 0, 0, 0, err
			}
			if i == requests/3 {
				faults[0].SetDown(true)
			}
			resp := b.Handle(ctx, &broker.Request{Payload: []byte("q"), Class: qos.Class1, NoCache: true})
			if resp.Status == broker.StatusOK {
				okCount++
			} else {
				errCount++
			}
		}
		return okCount, errCount, b.Metrics().Counter("breaker_opens_total").Value(), nil
	}

	baseOK, baseErr, _, err := run(false)
	if err != nil {
		return nil, err
	}
	resOK, resErr, opens, err := run(true)
	if err != nil {
		return nil, err
	}
	return &FailoverAblationResult{
		BaselineErrors:  baseErr,
		ResilientErrors: resErr,
		BaselineOK:      baseOK,
		ResilientOK:     resOK,
		BreakerOpens:    opens,
	}, nil
}
