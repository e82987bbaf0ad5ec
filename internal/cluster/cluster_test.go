package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"servicebroker/internal/httpserver"
	"servicebroker/internal/sqldb"
)

func TestRepeatCombiner(t *testing.T) {
	c := RepeatCombiner{}
	q := []byte("SELECT * FROM records WHERE category = 7")
	if !c.CanCombine(q, []byte(string(q))) {
		t.Fatal("identical queries cannot combine")
	}
	if c.CanCombine(q, []byte("SELECT 1")) {
		t.Fatal("distinct queries combined")
	}
	combined, err := c.Combine([][]byte{q, q, q})
	if err != nil {
		t.Fatal(err)
	}
	sql, times := sqldb.ParseRepeat(combined)
	if string(sql) != string(q) || times != 3 {
		t.Fatalf("combined = (%q, %d)", sql, times)
	}
	parts, err := c.Split([]byte("result"), 3)
	if err != nil || len(parts) != 3 {
		t.Fatalf("split = %v, %v", parts, err)
	}
	for _, p := range parts {
		if string(p) != "result" {
			t.Fatalf("part = %q", p)
		}
	}
	if _, err := c.Combine(nil); err == nil {
		t.Fatal("empty combine accepted")
	}
	if _, err := c.Combine(make([][]byte, sqldb.MaxRepeat+1)); err == nil {
		t.Fatal("a batch the directive cannot carry combined")
	}
}

func TestRepeatCombinerSingleton(t *testing.T) {
	c := RepeatCombiner{}
	combined, err := c.Combine([][]byte{[]byte("SELECT 1")})
	if err != nil {
		t.Fatal(err)
	}
	if string(combined) != "SELECT 1" {
		t.Fatalf("singleton combined = %q (no directive expected)", combined)
	}
}

func TestMGetCombiner(t *testing.T) {
	c := MGetCombiner{}
	a, b := []byte("/1.html"), []byte("/2.html")
	if !c.CanCombine(a, b) {
		t.Fatal("URIs cannot combine")
	}
	if c.CanCombine(a, []byte("not a uri")) {
		t.Fatal("non-URI combined")
	}
	if c.CanCombine(a, []byte("/multi\n/line")) {
		t.Fatal("multi-line payload combined")
	}
	combined, err := c.Combine([][]byte{a, b})
	if err != nil || string(combined) != "/1.html\n/2.html" {
		t.Fatalf("combined = %q, %v", combined, err)
	}

	// Split decodes the multipart MGET body.
	multipart := httpserver.EncodeMGetParts(
		[]string{"/1.html", "/2.html"},
		[]*httpserver.Response{httpserver.NewResponse(200, []byte("one")), httpserver.NewResponse(200, []byte("two"))},
	)
	parts, err := c.Split(multipart, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(parts[0]) != "one" || string(parts[1]) != "two" {
		t.Fatalf("parts = %q", parts)
	}
	// Singleton batches pass the raw body through.
	raw, err := c.Split([]byte("rawbody"), 1)
	if err != nil || string(raw[0]) != "rawbody" {
		t.Fatalf("singleton split = %q, %v", raw, err)
	}
	// Mismatched counts and error parts fail.
	if _, err := c.Split(multipart, 3); err == nil {
		t.Fatal("count mismatch accepted")
	}
	bad := httpserver.EncodeMGetParts([]string{"/x", "/y"},
		[]*httpserver.Response{httpserver.NewResponse(200, nil), httpserver.NewResponse(404, nil)})
	if _, err := c.Split(bad, 2); err == nil {
		t.Fatal("non-200 part accepted")
	}
}

// countingDo records every dispatched backend payload.
type countingDo struct {
	mu       sync.Mutex
	payloads [][]byte
	fn       Do
}

func (c *countingDo) do(ctx context.Context, payload []byte) ([]byte, error) {
	c.mu.Lock()
	cp := append([]byte(nil), payload...)
	c.payloads = append(c.payloads, cp)
	c.mu.Unlock()
	if c.fn != nil {
		return c.fn(ctx, payload)
	}
	return payload, nil
}

func (c *countingDo) calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.payloads)
}

func TestBatcherClustersIdenticalRequests(t *testing.T) {
	backendCalls := &countingDo{fn: func(_ context.Context, p []byte) ([]byte, error) {
		return []byte("shared result"), nil
	}}
	b, err := NewBatcher(backendCalls.do, RepeatCombiner{}, 10, WithMaxWait(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 8
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := b.Submit(context.Background(), []byte("SELECT X"))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			results[i] = out
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if string(r) != "shared result" {
			t.Fatalf("result %d = %q", i, r)
		}
	}
	if calls := backendCalls.calls(); calls >= n {
		t.Fatalf("backend calls = %d, want < %d (clustering)", calls, n)
	}
	if got := b.Metrics().Counter("clustered_requests").Value(); got != n {
		t.Fatalf("clustered_requests = %d, want %d", got, n)
	}
}

func TestBatcherDegreeOneDisablesClustering(t *testing.T) {
	calls := &countingDo{}
	b, err := NewBatcher(calls.do, RepeatCombiner{}, 1, WithMaxWait(0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), []byte("Q")); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := calls.calls(); got != 5 {
		t.Fatalf("backend calls = %d, want 5 (degree 1)", got)
	}
	// None of the dispatched payloads should carry a repeat directive.
	for _, p := range calls.payloads {
		if _, times := sqldb.ParseRepeat(p); times != 1 {
			t.Fatalf("degree-1 payload had repeat=%d", times)
		}
	}
}

func TestBatcherRespectsDegreeCap(t *testing.T) {
	var maxBatch atomic.Int64
	do := func(_ context.Context, p []byte) ([]byte, error) {
		_, times := sqldb.ParseRepeat(p)
		for {
			cur := maxBatch.Load()
			if int64(times) <= cur || maxBatch.CompareAndSwap(cur, int64(times)) {
				break
			}
		}
		return []byte("r"), nil
	}
	b, err := NewBatcher(do, RepeatCombiner{}, 3, WithMaxWait(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Submit(context.Background(), []byte("Q"))
		}()
	}
	wg.Wait()
	if got := maxBatch.Load(); got > 3 {
		t.Fatalf("max batch = %d, want ≤ 3", got)
	}
}

func TestBatcherSeparatesIncompatibleRequests(t *testing.T) {
	calls := &countingDo{}
	b, err := NewBatcher(calls.do, RepeatCombiner{}, 10, WithMaxWait(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("SELECT %d", i%2) // two distinct queries
			out, err := b.Submit(context.Background(), []byte(q))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			// RepeatCombiner shares the combined result; strip directive to
			// verify the right query was executed.
			sql, _ := sqldb.ParseRepeat(out)
			if string(sql) != q {
				t.Errorf("result %q for query %q (cross-batch mixing)", out, q)
			}
		}(i)
	}
	wg.Wait()
	if got := calls.calls(); got < 2 {
		t.Fatalf("backend calls = %d, want ≥ 2 (incompatible queries split)", got)
	}
}

func TestBatcherMGetEndToEnd(t *testing.T) {
	// Backend returning a multipart body for multi-URI payloads.
	do := func(_ context.Context, payload []byte) ([]byte, error) {
		uris := bytes.Split(payload, []byte("\n"))
		if len(uris) == 1 {
			return append([]byte("body:"), uris[0]...), nil
		}
		resps := make([]*httpserver.Response, len(uris))
		strs := make([]string, len(uris))
		for i, u := range uris {
			strs[i] = string(u)
			resps[i] = httpserver.NewResponse(200, append([]byte("body:"), u...))
		}
		return httpserver.EncodeMGetParts(strs, resps), nil
	}
	b, err := NewBatcher(do, MGetCombiner{}, 8, WithMaxWait(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			uri := fmt.Sprintf("/page/%d.html", i)
			out, err := b.Submit(context.Background(), []byte(uri))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if string(out) != "body:"+uri {
				t.Errorf("result %d = %q, want body:%s", i, out, uri)
			}
		}(i)
	}
	wg.Wait()
}

func TestBatcherBackendErrorPropagates(t *testing.T) {
	do := func(context.Context, []byte) ([]byte, error) {
		return nil, errors.New("backend down")
	}
	b, err := NewBatcher(do, RepeatCombiner{}, 4, WithMaxWait(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), []byte("Q")); err == nil {
				t.Error("backend error not propagated")
			}
		}()
	}
	wg.Wait()
}

func TestBatcherSubmitContextCancel(t *testing.T) {
	block := make(chan struct{})
	do := func(context.Context, []byte) ([]byte, error) {
		<-block
		return []byte("late"), nil
	}
	b, err := NewBatcher(do, RepeatCombiner{}, 1, WithMaxWait(0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		b.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := b.Submit(ctx, []byte("Q")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestBatcherClose(t *testing.T) {
	b, err := NewBatcher(func(_ context.Context, p []byte) ([]byte, error) { return p, nil },
		RepeatCombiner{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, err := b.Submit(context.Background(), []byte("Q")); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("err = %v, want ErrBatcherClosed", err)
	}
	b.Close() // idempotent
}

func TestNewBatcherValidation(t *testing.T) {
	do := func(_ context.Context, p []byte) ([]byte, error) { return p, nil }
	if _, err := NewBatcher(nil, RepeatCombiner{}, 1); err == nil {
		t.Fatal("nil do accepted")
	}
	if _, err := NewBatcher(do, nil, 1); err == nil {
		t.Fatal("nil combiner accepted")
	}
	if _, err := NewBatcher(do, RepeatCombiner{}, 0); err == nil {
		t.Fatal("degree 0 accepted")
	}
}

// Property: every submitted request receives exactly its own URI body back
// through MGET clustering, for any batch composition.
func TestBatcherMGetFidelityProperty(t *testing.T) {
	do := func(_ context.Context, payload []byte) ([]byte, error) {
		uris := bytes.Split(payload, []byte("\n"))
		if len(uris) == 1 {
			return append([]byte("B"), uris[0]...), nil
		}
		resps := make([]*httpserver.Response, len(uris))
		strs := make([]string, len(uris))
		for i, u := range uris {
			strs[i] = string(u)
			resps[i] = httpserver.NewResponse(200, append([]byte("B"), u...))
		}
		return httpserver.EncodeMGetParts(strs, resps), nil
	}
	f := func(ids []uint8, degree uint8) bool {
		if len(ids) == 0 || len(ids) > 24 {
			return true
		}
		d := int(degree%8) + 1
		b, err := NewBatcher(do, MGetCombiner{}, d, WithMaxWait(5*time.Millisecond))
		if err != nil {
			return false
		}
		defer b.Close()
		var wg sync.WaitGroup
		ok := make([]bool, len(ids))
		for i, id := range ids {
			wg.Add(1)
			go func(i int, id uint8) {
				defer wg.Done()
				uri := fmt.Sprintf("/r/%d/%d", i, id)
				out, err := b.Submit(context.Background(), []byte(uri))
				ok[i] = err == nil && string(out) == "B"+uri
			}(i, id)
		}
		wg.Wait()
		for _, v := range ok {
			if !v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
