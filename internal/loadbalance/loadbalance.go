// Package loadbalance implements the broker-side load-balancing policies of
// the paper (§III, "Load balancing"). Because a broker sees every request
// for its service and tracks outstanding work per replica, it can "accurately
// distribute the workload among the backend servers", unlike API-based
// access which, sharing no state, "can only work in a speculative manner".
//
// Policies pick a replica index given the per-replica outstanding counts; a
// ReplicaSet maintains those counts and composes a policy with a set of
// backend connectors. Every replica has a circuit breaker: a replica whose
// breaker is open is ejected from the candidate set until its cooldown
// elapses, at which point half-open probes decide whether it is re-admitted
// — automatic failover to healthy replicas.
package loadbalance

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"servicebroker/internal/backend"
	"servicebroker/internal/resilience"
)

// Policy selects a replica given per-replica outstanding request counts.
// Implementations must be safe for concurrent use.
type Policy interface {
	// Pick returns an index in [0, len(outstanding)).
	Pick(outstanding []int) int
	// Name identifies the policy in experiment output.
	Name() string
}

// RoundRobin cycles through replicas regardless of load.
type RoundRobin struct {
	mu   sync.Mutex
	next int
}

// Pick implements Policy.
func (r *RoundRobin) Pick(outstanding []int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.next % len(outstanding)
	r.next++
	return idx
}

// Name implements Policy.
func (r *RoundRobin) Name() string { return "round-robin" }

// LeastOutstanding picks the replica with the fewest in-flight requests —
// the accurate, broker-enabled policy. Ties break on the lowest index.
type LeastOutstanding struct{}

// Pick implements Policy.
func (LeastOutstanding) Pick(outstanding []int) int {
	best := 0
	for i, n := range outstanding {
		if n < outstanding[best] {
			best = i
		}
	}
	return best
}

// Name implements Policy.
func (LeastOutstanding) Name() string { return "least-outstanding" }

// Random picks uniformly at random — the speculative policy available to
// API-based access, which shares no load information.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom creates a Random policy with a deterministic seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Pick implements Policy.
func (r *Random) Pick(outstanding []int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Intn(len(outstanding))
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// ReplicaSet distributes requests across replicated backends using a
// policy, maintaining accurate outstanding counts, per-replica session pools
// and per-replica circuit breakers. Use NewReplicaSet; Close releases the
// pools.
type ReplicaSet struct {
	policy   Policy
	pools    []*backend.Pool
	names    []string
	breakers []*resilience.Breaker

	mu          sync.Mutex
	outstanding []int
	closed      bool
}

// NewReplicaSet pools each connector (poolCapacity persistent sessions per
// replica) under the given policy and gives each replica a circuit breaker
// built from cfg (zero fields take the resilience defaults). notify, when
// non-nil, observes every breaker transition (replica index, name, and
// states); it may fire while the set's internal lock is held and must not
// call back into the ReplicaSet.
func NewReplicaSet(policy Policy, poolCapacity int, cfg resilience.BreakerConfig,
	notify func(replica int, name string, from, to resilience.State), connectors ...backend.Connector) (*ReplicaSet, error) {
	if policy == nil {
		return nil, errors.New("loadbalance: nil policy")
	}
	if len(connectors) == 0 {
		return nil, errors.New("loadbalance: no replicas")
	}
	rs := &ReplicaSet{
		policy:      policy,
		outstanding: make([]int, len(connectors)),
	}
	for i, c := range connectors {
		pool, err := backend.NewPool(c, poolCapacity)
		if err != nil {
			rs.Close()
			return nil, fmt.Errorf("loadbalance: pool: %w", err)
		}
		replica, name := i, c.Name()
		bc := cfg
		if notify != nil {
			bc.OnTransition = func(from, to resilience.State) { notify(replica, name, from, to) }
		}
		rs.pools = append(rs.pools, pool)
		rs.names = append(rs.names, name)
		rs.breakers = append(rs.breakers, resilience.NewBreaker(fmt.Sprintf("%s#%d", name, replica), bc))
	}
	return rs, nil
}

// Name returns the replicated service's name (the first connector's name —
// replicas of one service share it).
func (rs *ReplicaSet) Name() string { return rs.names[0] }

// BreakerSnapshots returns the per-replica breaker states.
func (rs *ReplicaSet) BreakerSnapshots() []resilience.Snapshot {
	out := make([]resilience.Snapshot, len(rs.breakers))
	for i, b := range rs.breakers {
		out[i] = b.Snapshot()
	}
	return out
}

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("loadbalance: replica set closed")

// ErrNoHealthyReplica is returned by Do when every replica's breaker rejects
// traffic — the caller should degrade (serve stale data) or retry after the
// breaker cooldown. It classifies as retryable.
var ErrNoHealthyReplica = errors.New("loadbalance: no healthy replica (all breakers open)")

// Do routes one request to a replica chosen by the policy. Only replicas
// whose breaker admits traffic are candidates, and the outcome of the access
// is reported back to the chosen breaker.
func (rs *ReplicaSet) Do(ctx context.Context, payload []byte) ([]byte, error) {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil, ErrClosed
	}
	idx, err := rs.pickLocked()
	if err != nil {
		rs.mu.Unlock()
		return nil, err
	}
	rs.outstanding[idx]++
	rs.mu.Unlock()

	defer func() {
		rs.mu.Lock()
		rs.outstanding[idx]--
		rs.mu.Unlock()
	}()
	out, doErr := rs.pools[idx].Do(ctx, payload)
	rs.breakers[idx].Done(doErr)
	return out, doErr
}

// pickLocked chooses a replica index, restricting the policy's candidates to
// replicas whose breaker admits traffic. Caller holds rs.mu.
func (rs *ReplicaSet) pickLocked() (int, error) {
	candidates := make([]int, 0, len(rs.pools))
	for i, b := range rs.breakers {
		if b.Candidate() {
			candidates = append(candidates, i)
		}
	}
	// The policy picks within the healthy subset; a candidate that loses
	// the Acquire race (e.g. another goroutine took the half-open probe
	// slot) is removed and the pick repeated.
	for len(candidates) > 0 {
		sub := make([]int, len(candidates))
		for k, i := range candidates {
			sub[k] = rs.outstanding[i]
		}
		k := rs.policy.Pick(sub)
		if k < 0 || k >= len(sub) {
			return 0, fmt.Errorf("loadbalance: policy %s picked invalid replica %d", rs.policy.Name(), k)
		}
		if idx := candidates[k]; rs.breakers[idx].Acquire() {
			return idx, nil
		}
		candidates = append(candidates[:k], candidates[k+1:]...)
	}
	return 0, ErrNoHealthyReplica
}

// Close releases every replica pool.
func (rs *ReplicaSet) Close() error {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil
	}
	rs.closed = true
	rs.mu.Unlock()
	var firstErr error
	for _, p := range rs.pools {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
