package loadbalance

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/resilience"
	"servicebroker/internal/testutil"
)

// countingConn counts the accesses that reach it, each taking delay.
func countingConn(name string, delay time.Duration, n *atomic.Int64) backend.Connector {
	return &backend.FuncConnector{
		ServiceName: name,
		DoFn: func(_ context.Context, payload []byte) ([]byte, error) {
			n.Add(1)
			time.Sleep(delay)
			return append([]byte("done:"), payload...), nil
		},
	}
}

// echoConn is an instant in-process connector for breaker tests.
func echoConn(name string) backend.Connector {
	return &backend.FuncConnector{
		ServiceName: name,
		DoFn: func(_ context.Context, payload []byte) ([]byte, error) {
			return append([]byte("done:"), payload...), nil
		},
	}
}

func TestRoundRobinCycles(t *testing.T) {
	rr := &RoundRobin{}
	out := []int{0, 0, 0}
	got := []int{rr.Pick(out), rr.Pick(out), rr.Pick(out), rr.Pick(out)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("picks = %v, want %v", got, want)
		}
	}
	if rr.Name() != "round-robin" {
		t.Fatalf("name = %q", rr.Name())
	}
}

func TestLeastOutstanding(t *testing.T) {
	lo := LeastOutstanding{}
	if got := lo.Pick([]int{3, 1, 2}); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
	// Ties break on lowest index.
	if got := lo.Pick([]int{2, 2, 2}); got != 0 {
		t.Fatalf("tie pick = %d, want 0", got)
	}
}

func TestRandomWithinBounds(t *testing.T) {
	r := NewRandom(1)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		idx := r.Pick([]int{0, 0, 0, 0})
		if idx < 0 || idx > 3 {
			t.Fatalf("pick = %d out of range", idx)
		}
		seen[idx] = true
	}
	if len(seen) < 3 {
		t.Fatalf("random policy hit only %d replicas in 200 picks", len(seen))
	}
}

// Property: every policy returns a valid index for any non-empty loads.
func TestPoliciesAlwaysValidProperty(t *testing.T) {
	policies := []Policy{&RoundRobin{}, LeastOutstanding{}, NewRandom(7)}
	f := func(loads []uint8) bool {
		if len(loads) == 0 {
			return true
		}
		ints := make([]int, len(loads))
		for i, l := range loads {
			ints[i] = int(l)
		}
		for _, p := range policies {
			idx := p.Pick(ints)
			if idx < 0 || idx >= len(ints) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaSetDistributes(t *testing.T) {
	served := make([]atomic.Int64, 3)
	rs, err := NewReplicaSet(&RoundRobin{}, 2, resilience.BreakerConfig{}, nil, countingConn("r0", 5*time.Millisecond, &served[0]),
		countingConn("r1", 5*time.Millisecond, &served[1]), countingConn("r2", 5*time.Millisecond, &served[2]))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rs.Do(context.Background(), []byte("q")); err != nil {
				t.Errorf("do: %v", err)
			}
		}()
	}
	wg.Wait()
	total := 0
	for i := range served {
		n := int(served[i].Load())
		if n == 0 {
			t.Errorf("replica %d served nothing", i)
		}
		total += n
	}
	if total != 9 {
		t.Fatalf("total served = %d, want 9", total)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i, n := range rs.outstanding {
		if n != 0 {
			t.Fatalf("replica %d outstanding = %d after completion", i, n)
		}
	}
}

func TestReplicaSetLeastOutstandingAvoidsBusyReplica(t *testing.T) {
	var slowServed, fastServed atomic.Int64
	rs, err := NewReplicaSet(LeastOutstanding{}, 2, resilience.BreakerConfig{}, nil,
		countingConn("slow", 200*time.Millisecond, &slowServed), countingConn("fast", 0, &fastServed))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// Occupy replica 0 (ties break low, so the first request goes there).
	done := make(chan struct{})
	go func() {
		defer close(done)
		rs.Do(context.Background(), []byte("block"))
	}()
	time.Sleep(20 * time.Millisecond)

	// While replica 0 is busy, new work must flow to replica 1.
	for i := 0; i < 5; i++ {
		if _, err := rs.Do(context.Background(), []byte("q")); err != nil {
			t.Fatal(err)
		}
	}
	if n := fastServed.Load(); n != 5 {
		t.Fatalf("idle replica served %d, want all 5", n)
	}
	<-done
}

func TestReplicaSetValidation(t *testing.T) {
	if _, err := NewReplicaSet(nil, 1, resilience.BreakerConfig{}, nil, &backend.DelayConnector{}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := NewReplicaSet(&RoundRobin{}, 1, resilience.BreakerConfig{}, nil); err == nil {
		t.Fatal("zero replicas accepted")
	}
	if _, err := NewReplicaSet(&RoundRobin{}, 0, resilience.BreakerConfig{}, nil, &backend.DelayConnector{}); err == nil {
		t.Fatal("zero pool capacity accepted")
	}
}

func TestReplicaSetClose(t *testing.T) {
	rs, err := NewReplicaSet(&RoundRobin{}, 1, resilience.BreakerConfig{}, nil, &backend.DelayConnector{ServiceName: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Do(context.Background(), nil); err == nil {
		t.Fatal("Do succeeded after Close")
	}
	rs.Close() // idempotent
	if len(rs.pools) != 1 {
		t.Fatalf("size = %d", len(rs.pools))
	}
}

type fixedPolicy struct{ idx int }

func (f fixedPolicy) Pick([]int) int { return f.idx }
func (f fixedPolicy) Name() string   { return "fixed" }

func TestReplicaSetRejectsInvalidPick(t *testing.T) {
	rs, err := NewReplicaSet(fixedPolicy{idx: 5}, 1, resilience.BreakerConfig{}, nil, &backend.DelayConnector{ServiceName: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Do(context.Background(), nil); err == nil {
		t.Fatal("invalid pick not rejected")
	}
}

func TestReplicaSetBreakerEjectsDeadReplica(t *testing.T) {
	dead := &backend.FaultConnector{Inner: echoConn("dead")}
	dead.SetDown(true)
	alive := echoConn("alive")
	rs, err := NewReplicaSet(LeastOutstanding{}, 2,
		resilience.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour}, nil, dead, alive)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// LeastOutstanding ties break to replica 0 (dead); after 3 failures
	// the breaker opens and every access lands on the healthy replica.
	errs := 0
	for i := 0; i < 10; i++ {
		if _, err := rs.Do(context.Background(), []byte("q")); err != nil {
			errs++
		}
	}
	if errs != 3 {
		t.Fatalf("errors = %d, want exactly the 3 that tripped the breaker", errs)
	}
	snaps := rs.BreakerSnapshots()
	if snaps[0].State != resilience.StateOpen || snaps[1].State != resilience.StateClosed {
		t.Fatalf("breaker states = %v/%v, want open/closed", snaps[0].State, snaps[1].State)
	}
	if snaps[1].Successes != 7 {
		t.Fatalf("healthy replica served %d, want 7", snaps[1].Successes)
	}
}

func TestReplicaSetHalfOpenReadmitsRecoveredReplica(t *testing.T) {
	advance := testutil.FakeClock(t)
	flaky := &backend.FaultConnector{Inner: echoConn("flaky")}
	flaky.SetDown(true)
	var transitions []resilience.State
	rs, err := NewReplicaSet(LeastOutstanding{}, 2, resilience.BreakerConfig{
		FailureThreshold: 1, Cooldown: time.Second,
	}, func(replica int, name string, from, to resilience.State) {
		if replica == 0 {
			transitions = append(transitions, to)
		}
	}, flaky, echoConn("steady"))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	rs.Do(context.Background(), []byte("q")) // trips replica 0's breaker
	if snaps := rs.BreakerSnapshots(); snaps[0].State != resilience.StateOpen {
		t.Fatalf("state = %v, want open", snaps[0].State)
	}

	// Recover the replica and let the cooldown elapse: the next access
	// probes it half-open and the success closes the breaker.
	flaky.SetDown(false)
	advance(time.Second)
	if _, err := rs.Do(context.Background(), []byte("q")); err != nil {
		t.Fatalf("probe access failed: %v", err)
	}
	if snaps := rs.BreakerSnapshots(); snaps[0].State != resilience.StateClosed {
		t.Fatalf("state = %v after successful probe, want closed", snaps[0].State)
	}
	if sn := rs.BreakerSnapshots()[0]; sn.Successes+sn.Failures != 2 {
		t.Fatalf("recovered replica served %d, want 2 (including the probe)", sn.Successes+sn.Failures)
	}
	want := []resilience.State{resilience.StateOpen, resilience.StateHalfOpen, resilience.StateClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestReplicaSetAllBreakersOpen(t *testing.T) {
	a := &backend.FaultConnector{Inner: echoConn("a")}
	b := &backend.FaultConnector{Inner: echoConn("b")}
	a.SetDown(true)
	b.SetDown(true)
	rs, err := NewReplicaSet(LeastOutstanding{}, 1,
		resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour}, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	for i := 0; i < 2; i++ { // trip both breakers
		rs.Do(context.Background(), []byte("q"))
	}
	if _, err := rs.Do(context.Background(), []byte("q")); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("Do with all breakers open = %v, want ErrNoHealthyReplica", err)
	}
}
