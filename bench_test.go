// Package servicebroker's root benchmark suite holds the substrate
// micro-benchmarks:
//
//	go test -run XXX -bench=Micro -benchmem
//
// The paper's figures and tables and the ablation studies are run by
// `go run ./cmd/sbexp` (EXPERIMENTS.md); the end-to-end benchmark is
// `bash benchmark/run.sh` (benchmark/README.md).
package servicebroker

import (
	"context"
	"testing"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/cache"
	"servicebroker/internal/qos"
	"servicebroker/internal/sqldb"
	"servicebroker/internal/wire"
)

// BenchmarkMicroSQLQuery measures one indexed query against the 42,000-row
// fixture through the in-process engine.
func BenchmarkMicroSQLQuery(b *testing.B) {
	engine := sqldb.NewEngine()
	if err := sqldb.LoadRecords(engine, sqldb.PaperRecordCount); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Exec("SELECT id, name FROM records WHERE category = 42"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroSQLRangeScan measures an unindexed range scan over the
// fixture (the clustering experiment's per-query work).
func BenchmarkMicroSQLRangeScan(b *testing.B) {
	engine := sqldb.NewEngine()
	if err := sqldb.LoadRecords(engine, sqldb.PaperRecordCount); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Exec("SELECT id FROM records WHERE score BETWEEN 100 AND 140"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroWireCodec measures the UDP message codec round trip.
func BenchmarkMicroWireCodec(b *testing.B) {
	m := &wire.Message{
		Type:    wire.TypeRequest,
		ID:      7,
		Service: "db",
		Class:   qos.Class2,
		Payload: []byte("SELECT id, name, score FROM records WHERE category = 42"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := wire.Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroCache measures broker result-cache hits.
func BenchmarkMicroCache(b *testing.B) {
	c := cache.New(1024)
	c.Put("key", []byte("a cached movie schedule result"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("key"); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkMicroPriorityQueue measures queue push+pop.
func BenchmarkMicroPriorityQueue(b *testing.B) {
	q := qos.NewQueue[int](1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Push(qos.Class(i%3+1), i); err != nil {
			b.Fatal(err)
		}
		if _, _, ok := q.TryPop(); !ok {
			b.Fatal("empty")
		}
	}
}

// BenchmarkMicroBrokerHandle measures the full broker pipeline over an
// instant in-process backend (no clustering, no cache).
func BenchmarkMicroBrokerHandle(b *testing.B) {
	brk, err := broker.New(&backend.DelayConnector{ServiceName: "fast"},
		broker.WithThreshold(64, 3), broker.WithWorkers(4))
	if err != nil {
		b.Fatal(err)
	}
	defer brk.Close()
	ctx := context.Background()
	req := &broker.Request{Payload: []byte("q"), Class: qos.Class1, NoCache: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := brk.Handle(ctx, req); resp.Status != broker.StatusOK {
			b.Fatalf("resp = %+v", resp)
		}
	}
}

// BenchmarkMicroBrokerCachedHit measures the broker's cache fast path.
func BenchmarkMicroBrokerCachedHit(b *testing.B) {
	brk, err := broker.New(&backend.DelayConnector{ServiceName: "fast"},
		broker.WithThreshold(64, 3), broker.WithWorkers(4), broker.WithCache(64, 0))
	if err != nil {
		b.Fatal(err)
	}
	defer brk.Close()
	ctx := context.Background()
	req := &broker.Request{Payload: []byte("q"), Class: qos.Class1}
	brk.Handle(ctx, req) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := brk.Handle(ctx, req); resp.Fidelity != qos.FidelityCached {
			b.Fatalf("resp = %+v", resp)
		}
	}
}
