package qos

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClassValid(t *testing.T) {
	if Class(0).Valid() {
		t.Fatal("class 0 valid")
	}
	if Class(-1).Valid() {
		t.Fatal("class -1 valid")
	}
	if !Class1.Valid() || !Class3.Valid() {
		t.Fatal("class 1/3 invalid")
	}
}

func TestClassString(t *testing.T) {
	if got := Class2.String(); got != "QoS 2" {
		t.Fatalf("String = %q", got)
	}
}

func TestThresholdPolicyShares(t *testing.T) {
	p := NewThresholdPolicy(20, 3) // the paper's configuration
	tests := []struct {
		class Class
		want  int
	}{
		{Class1, 20}, // full threshold
		{Class2, 13}, // 2/3 of 20
		{Class3, 6},  // 1/3 of 20
	}
	for _, tt := range tests {
		if got := p.Limit(tt.class); got != tt.want {
			t.Errorf("Limit(%v) = %d, want %d", tt.class, got, tt.want)
		}
	}
}

func TestThresholdPolicyAdmit(t *testing.T) {
	p := NewThresholdPolicy(20, 3)
	// Light load: everyone admitted (paper: no drops below 20 clients).
	for c := Class1; c <= Class3; c++ {
		if !p.Admit(c, 0) {
			t.Errorf("Admit(%v, 0) = false", c)
		}
	}
	// At 10 outstanding, class 3 (limit 6) is shed, classes 1-2 admitted.
	if p.Admit(Class3, 10) {
		t.Error("class 3 admitted at 10 outstanding")
	}
	if !p.Admit(Class2, 10) || !p.Admit(Class1, 10) {
		t.Error("class 1/2 shed at 10 outstanding")
	}
	// At threshold, nobody is admitted.
	for c := Class1; c <= Class3; c++ {
		if p.Admit(c, 20) {
			t.Errorf("Admit(%v, 20) = true", c)
		}
	}
}

func TestThresholdPolicySheddingIsMonotoneInClass(t *testing.T) {
	// Property: if class c is admitted at load L, every higher-priority
	// class is admitted too — this is exactly the no-priority-inversion
	// guarantee.
	f := func(threshold uint8, classes uint8, load uint8, class uint8) bool {
		th := int(threshold%50) + 1
		k := int(classes%5) + 1
		p := NewThresholdPolicy(th, k)
		c := Class(int(class)%k + 1)
		if !p.Admit(c, int(load)) {
			return true
		}
		for hc := Class1; hc < c; hc++ {
			if !p.Admit(hc, int(load)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdPolicyCustomShares(t *testing.T) {
	p := NewThresholdPolicy(100, 2)
	p.Shares = map[Class]float64{Class2: 0.1}
	if got := p.Limit(Class2); got != 10 {
		t.Fatalf("custom share limit = %d, want 10", got)
	}
	if got := p.Limit(Class1); got != 100 {
		t.Fatalf("default share limit = %d, want 100", got)
	}
}

func TestThresholdPolicyClampsOutOfRangeClass(t *testing.T) {
	p := NewThresholdPolicy(30, 3)
	if got := p.Limit(Class(99)); got != p.Limit(Class3) {
		t.Fatalf("overflow class limit = %d, want %d", got, p.Limit(Class3))
	}
	if got := p.Limit(Class(0)); got != p.Limit(Class1) {
		t.Fatalf("underflow class limit = %d, want %d", got, p.Limit(Class1))
	}
}

func TestNewThresholdPolicyPanics(t *testing.T) {
	for _, tc := range []struct{ th, k int }{{0, 3}, {20, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewThresholdPolicy(%d, %d) did not panic", tc.th, tc.k)
				}
			}()
			NewThresholdPolicy(tc.th, tc.k)
		}()
	}
}

func TestFidelityString(t *testing.T) {
	tests := []struct {
		f    Fidelity
		want string
	}{
		{FidelityFull, "full"},
		{FidelityCached, "cached"},
		{FidelityDegraded, "degraded"},
		{FidelityBusy, "busy"},
		{Fidelity(42), "fidelity(42)"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.f, got, tt.want)
		}
	}
}

func TestContractBurstThenRefill(t *testing.T) {
	now := time.Unix(0, 0)
	c := NewContract(10, 2) // 10 req/s, burst 2
	c.SetClock(func() time.Time { return now })
	if !c.Allow() || !c.Allow() {
		t.Fatal("burst tokens unavailable")
	}
	if c.Allow() {
		t.Fatal("third request within burst allowed")
	}
	now = now.Add(100 * time.Millisecond) // refills one token at 10/s
	if !c.Allow() {
		t.Fatal("token not refilled after 100ms")
	}
	if c.Allow() {
		t.Fatal("extra token appeared")
	}
}

func TestContractTokensCappedAtBurst(t *testing.T) {
	now := time.Unix(0, 0)
	c := NewContract(100, 5)
	c.SetClock(func() time.Time { return now })
	c.Allow()
	now = now.Add(time.Hour)
	c.Allow() // triggers refill
	if got := c.Tokens(); got > 5 {
		t.Fatalf("tokens = %g, want ≤ burst 5", got)
	}
}

func TestNewContractPanics(t *testing.T) {
	for _, tc := range []struct {
		rate  float64
		burst int
	}{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewContract(%g, %d) did not panic", tc.rate, tc.burst)
				}
			}()
			NewContract(tc.rate, tc.burst)
		}()
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	q := NewQueue[string](16)
	q.Push(Class3, "low")
	q.Push(Class1, "high")
	q.Push(Class2, "mid")
	q.Push(Class1, "high2")

	want := []struct {
		v string
		c Class
	}{{"high", Class1}, {"high2", Class1}, {"mid", Class2}, {"low", Class3}}
	for i, w := range want {
		v, c, err := q.Pop()
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if v != w.v || c != w.c {
			t.Fatalf("pop %d = (%q, %v), want (%q, %v)", i, v, c, w.v, w.c)
		}
	}
}

func TestQueueFIFOWithinClass(t *testing.T) {
	q := NewQueue[int](16)
	for i := 0; i < 5; i++ {
		q.Push(Class1, i)
	}
	for i := 0; i < 5; i++ {
		v, _, err := q.Pop()
		if err != nil || v != i {
			t.Fatalf("pop = %d, %v; want %d", v, err, i)
		}
	}
}

func TestQueueCapacity(t *testing.T) {
	q := NewQueue[int](2)
	if err := q.Push(Class1, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(Class1, 2); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(Class1, 3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("push over capacity = %v, want ErrQueueFull", err)
	}
}

func TestQueueInvalidClass(t *testing.T) {
	q := NewQueue[int](2)
	if err := q.Push(Class(0), 1); err == nil {
		t.Fatal("push with class 0 succeeded")
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := NewQueue[int](4)
	got := make(chan int, 1)
	go func() {
		v, _, err := q.Pop()
		if err != nil {
			return
		}
		got <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the popper block
	q.Push(Class2, 7)
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("pop = %d, want 7", v)
		}
	case <-time.After(time.Second):
		t.Fatal("pop did not wake after push")
	}
}

func TestQueueCloseDrainsThenFails(t *testing.T) {
	q := NewQueue[int](4)
	q.Push(Class1, 1)
	q.Close()
	if v, _, err := q.Pop(); err != nil || v != 1 {
		t.Fatalf("pop after close = (%d, %v), want drained item", v, err)
	}
	if _, _, err := q.Pop(); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("pop on drained closed queue = %v, want ErrQueueClosed", err)
	}
	if err := q.Push(Class1, 2); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("push after close = %v, want ErrQueueClosed", err)
	}
	q.Close() // double close is a no-op
}

func TestQueueCloseWakesBlockedPoppers(t *testing.T) {
	q := NewQueue[int](4)
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := q.Pop()
			errs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("blocked pop returned %v, want ErrQueueClosed", err)
		}
	}
}

func TestQueueTryPop(t *testing.T) {
	q := NewQueue[int](4)
	if _, _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue returned ok")
	}
	q.Push(Class1, 5)
	v, c, ok := q.TryPop()
	if !ok || v != 5 || c != Class1 {
		t.Fatalf("TryPop = (%d, %v, %v)", v, c, ok)
	}
}

func TestQueueLens(t *testing.T) {
	q := NewQueue[int](16)
	q.Push(Class1, 1)
	q.Push(Class2, 2)
	q.Push(Class2, 3)
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue[int](1024)
	const producers, perProducer = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				c := Class(p%3 + 1)
				for {
					err := q.Push(c, p*perProducer+i)
					if err == nil {
						break
					}
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(time.Microsecond)
						continue
					}
					t.Errorf("push: %v", err)
					return
				}
			}
		}(p)
	}

	var consumed sync.WaitGroup
	total := producers * perProducer
	seen := make(chan int, total)
	for c := 0; c < 4; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				v, _, err := q.Pop()
				if err != nil {
					return
				}
				seen <- v
			}
		}()
	}

	wg.Wait()
	// Wait until everything has been consumed, then close.
	deadline := time.After(5 * time.Second)
	for len(seen) < total {
		select {
		case <-deadline:
			t.Fatalf("consumed %d of %d", len(seen), total)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	q.Close()
	consumed.Wait()

	unique := make(map[int]bool, total)
	close(seen)
	for v := range seen {
		if unique[v] {
			t.Fatalf("item %d consumed twice", v)
		}
		unique[v] = true
	}
	if len(unique) != total {
		t.Fatalf("consumed %d unique items, want %d", len(unique), total)
	}
}

// Property: popping a full queue yields items in non-decreasing class order
// when all pushes happen before any pop.
func TestQueuePriorityProperty(t *testing.T) {
	f := func(classes []uint8) bool {
		if len(classes) == 0 {
			return true
		}
		q := NewQueue[int](len(classes))
		for i, c := range classes {
			if err := q.Push(Class(int(c)%4+1), i); err != nil {
				return false
			}
		}
		prev := Class(0)
		for range classes {
			_, c, err := q.Pop()
			if err != nil || c < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
