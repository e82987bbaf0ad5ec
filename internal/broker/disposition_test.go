package broker

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/qos"
)

// TestEveryRequestOneDisposition drives seeded random schedules through a
// broker in front of a slot-limited backend: bursts of requests in random
// classes (out-of-range ones included), some of whose callers give up at a
// random moment, and one Drain at a random step. After every step each
// Handle has returned, each class's requests split exactly into completed +
// dropped + shed + errors, and outstanding is back to 0.
func TestEveryRequestOneDisposition(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		runDispositionSchedule(t, seed)
	}
}

func runDispositionSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	const classes = 3
	conn := &backend.DelayConnector{ServiceName: "db",
		ProcessTime: time.Duration(rng.Intn(100)) * time.Microsecond, MaxConcurrent: 1 + rng.Intn(2)}
	b, err := New(conn, WithThreshold(2+rng.Intn(8), classes), WithWorkers(1+rng.Intn(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	reg := b.Metrics()
	count := func(name string, k int) int64 { return reg.Counter(name + "_class_" + strconv.Itoa(k)).Value() }

	// settled reports whether every request so far has its one disposition.
	// A worker accounts for a job whose caller left after that Handle
	// returned, so the counts may lag; they may never run ahead.
	settled := func(step int) bool {
		done := b.Load().Outstanding == 0
		for k := 1; k <= classes; k++ {
			requests := count("requests", k)
			sum := count("completed", k) + count("dropped", k) + count("shed", k) + count("errors", k)
			if sum > requests {
				fail(step, "class %d has %d dispositions for %d requests", k, sum, requests)
			}
			done = done && sum == requests
		}
		return done
	}

	steps := 4 + rng.Intn(9)
	drainAt := rng.Intn(steps + 2) // one schedule in about seven never drains
	var drained chan error
	for step := 0; step < steps; step++ {
		if step == drainAt {
			drained = make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				drained <- b.Drain(ctx)
			}()
		}
		n := 1 + rng.Intn(6)
		resps := make([]*Response, n)
		returns := make([]int, n)
		cancelled := make([]bool, n)
		cancels := make([]context.CancelFunc, n)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			cancels[i] = cancel
			if cancelled[i] = rng.Intn(4) == 0; cancelled[i] {
				time.AfterFunc(time.Duration(rng.Intn(200))*time.Microsecond, cancel)
			}
			req := &Request{Payload: []byte(fmt.Sprintf("q%d", i)), Class: qos.Class(rng.Intn(classes + 2))}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp := b.Handle(ctx, req)
				mu.Lock()
				resps[i] = resp
				returns[i]++
				mu.Unlock()
			}(i)
		}
		all := make(chan struct{})
		go func() { wg.Wait(); close(all) }()
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			fail(step, "a Handle never returned")
		}
		for _, cancel := range cancels {
			cancel()
		}
		for i, resp := range resps {
			switch {
			case returns[i] != 1:
				fail(step, "request %d: Handle returned %d times", i, returns[i])
			case resp == nil:
				fail(step, "request %d: nil response", i)
			case resp.Status == StatusError && !cancelled[i]:
				fail(step, "request %d failed with nobody cancelling it: %v", i, resp.Err)
			case drainAt < step && resp.Status != StatusShed:
				fail(step, "request %d after the drain = %v, want shed", i, resp.Status)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); !settled(step); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				fail(step, "dispositions never caught up with requests, or outstanding = %d", b.Load().Outstanding)
			}
		}
		if step == drainAt {
			if err := <-drained; err != nil {
				fail(step, "Drain = %v with nothing left outstanding", err)
			}
		}
	}
}
