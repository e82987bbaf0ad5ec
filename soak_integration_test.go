package servicebroker

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/qos"
	"servicebroker/internal/sqldb"
)

// Soak sizes and tolerances. After 8N more requests the live heap may be at
// most soakHeapSlack above its value after the first N, and the goroutine
// count at most soakGoroutineSlack above it. The result cache and the
// idempotency table are sized to be full after N, and a metrics histogram
// has its whole size from its first observation, so they are flat. Only the
// transaction tracker still fills toward its cap at this length (4,096
// transactions, one per write): the heap grows 0.29–0.34 MB here, with or
// without the race detector, and the slack is about three times that. A
// structure that keeps the last 4,096 replies whatever the clients have
// received grows ≈ 2.8 MB here on its own, well past the slack.
const (
	soakN              = 2000
	soakHeapSlack      = 1 << 20
	soakGoroutineSlack = 2
	soakCacheEntries   = 256
	soakIdemEntries    = 128
)

// TestSoakNothingGrowsWithRequests drives the in-process stack — HTTP front
// end, pool, UDP wire, broker with cache, coalescing, transactions and
// idempotency, sqldb — with a mixed_rw-shaped stream: range reads, and one
// write in ten tagged with its own transaction and idempotency key. It takes
// the live heap and goroutine count after N requests and again after 8N more,
// each after forced GCs, and requires both to stay flat within the stated
// tolerances.
func TestSoakNothingGrowsWithRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	engine := sqldb.NewEngine()
	if err := sqldb.LoadRecords(engine, sqldb.PaperRecordCount); err != nil {
		t.Fatal(err)
	}
	db, err := sqldb.NewServer(engine, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b, err := broker.New(&backend.SQLConnector{Addr: db.Addr().String()},
		broker.WithThreshold(20, 3), broker.WithWorkers(4), broker.WithCoalescing(),
		broker.WithCache(soakCacheEntries, 0), broker.WithTransactions(), broker.WithIdempotency(soakIdemEntries, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gw, err := broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{"db": b})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	front, err := frontend.NewDistributed("127.0.0.1:0", gw.Addr().String(),
		[]frontend.Route{{Pattern: "/db", Service: "db", DefaultClass: qos.Class3}})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	const conns = 2
	clients := make([]*httpserver.Client, conns)
	for i := range clients {
		clients[i] = httpserver.NewClient(front.Addr(),
			httpserver.WithPersistent(1), httpserver.WithTimeout(10*time.Second))
		defer clients[i].Close()
	}
	rng := rand.New(rand.NewSource(1))
	var mu sync.Mutex
	served := 0
	// next returns request n's query: a range read, or, once in every ten,
	// an update tagged with a transaction and idempotency key of its own.
	next := func() map[string]string {
		mu.Lock()
		defer mu.Unlock()
		n := served
		served++
		if n%10 == 0 {
			id := rng.Intn(sqldb.PaperRecordCount)
			tag := "soak-" + strconv.Itoa(n)
			return map[string]string{
				"q":   fmt.Sprintf("UPDATE records SET score = %d.5 WHERE id = %d", 1000+rng.Intn(1000), id),
				"qos": "1", "txn": tag, "step": "1", "idem": tag,
			}
		}
		return map[string]string{"q": sqldb.RandomRangeQuery(rng), "qos": "1"}
	}
	drive := func(requests int) {
		var wg sync.WaitGroup
		for _, cli := range clients {
			wg.Add(1)
			go func(cli *httpserver.Client) {
				defer wg.Done()
				for i := 0; i < requests/conns; i++ {
					resp, err := cli.Get("/db", next())
					if err != nil {
						t.Errorf("request: %v", err)
						return
					}
					if resp.Status != 200 || resp.Header["x-broker-status"] != "ok" {
						t.Errorf("request: status %d, broker %q: %s", resp.Status, resp.Header["x-broker-status"], resp.Body)
						return
					}
				}
			}(cli)
		}
		wg.Wait()
	}
	measure := func() (heap uint64, goroutines int) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, runtime.NumGoroutine()
	}

	drive(soakN)
	heap1, g1 := measure()
	drive(8 * soakN)
	heap8, g8 := measure()
	if t.Failed() {
		return
	}
	t.Logf("live heap %d → %d bytes (%+d), goroutines %d → %d", heap1, heap8, int64(heap8)-int64(heap1), g1, g8)
	if heap8 > heap1+soakHeapSlack {
		t.Errorf("live heap grew by %d bytes over %d requests, tolerance %d", heap8-heap1, 8*soakN, soakHeapSlack)
	}
	if g8 > g1+soakGoroutineSlack {
		t.Errorf("goroutines grew from %d to %d over %d requests, tolerance %d", g1, g8, 8*soakN, soakGoroutineSlack)
	}
}
