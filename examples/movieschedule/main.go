// Movieschedule: the paper's result-caching scenario (§III). "Consider an
// online Web site that provides movie schedules ... in the peak time, there
// would be lots of requests for the same movie schedule. If the results are
// not cached, the database has to process the same query repeatedly."
//
// This example builds the full movie site backend (database + broker) and
// drives a peak-hour workload twice — caching off, then on — printing the
// response-time and backend-load difference:
//
//	go run ./examples/movieschedule
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/qos"
	"servicebroker/internal/sqldb"
	"servicebroker/internal/workload"
)

const (
	theaters       = 12
	moviesPerHouse = 8
	peakRequests   = 400
	hotMovies      = 5 // tonight's blockbusters everyone asks about
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db, err := buildScheduleDB()
	if err != nil {
		return err
	}
	defer db.Close()

	uncached, err := runPeak(db.Addr().String(), false)
	if err != nil {
		return err
	}
	cached, err := runPeak(db.Addr().String(), true)
	if err != nil {
		return err
	}

	fmt.Println("peak-hour movie-schedule workload:", peakRequests, "requests,",
		hotMovies, "hot movies")
	fmt.Printf("  without broker cache: mean=%-12v backend queries=%d\n",
		uncached.mean, uncached.backendQueries)
	fmt.Printf("  with broker cache:    mean=%-12v backend queries=%d hit ratio=%.2f\n",
		cached.mean, cached.backendQueries, cached.hitRatio)
	fmt.Printf("  speedup %.1fx, backend load reduced %.1fx\n",
		float64(uncached.mean)/float64(cached.mean),
		float64(uncached.backendQueries)/float64(cached.backendQueries))
	return nil
}

// buildScheduleDB creates the showtimes database.
func buildScheduleDB() (*sqldb.Server, error) {
	engine := sqldb.NewEngine()
	if _, err := engine.Exec("CREATE TABLE schedule (id INT PRIMARY KEY, movie INT, theater INT, showtime TEXT)"); err != nil {
		return nil, err
	}
	if _, err := engine.Exec("CREATE INDEX schedule_movie ON schedule (movie)"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(2003))
	id := 0
	ins := &sqldb.Insert{Table: "schedule"}
	for th := 0; th < theaters; th++ {
		for m := 0; m < moviesPerHouse; m++ {
			for _, slot := range []string{"17:00", "19:30", "22:00"} {
				ins.Rows = append(ins.Rows, []sqldb.Value{
					int64(id), int64(rng.Intn(40)), int64(th), slot,
				})
				id++
			}
		}
	}
	if _, err := engine.ExecStmt(ins); err != nil {
		return nil, err
	}
	// A per-query cost makes the backend's relief visible; real MySQL pays
	// this in disk and parse time.
	return sqldb.NewServer(engine, "127.0.0.1:0", sqldb.WithQueryDelay(2*time.Millisecond))
}

type peakResult struct {
	mean           time.Duration
	backendQueries int64
	hitRatio       float64
}

// runPeak drives the peak workload through a broker with or without cache.
func runPeak(dbAddr string, withCache bool) (*peakResult, error) {
	opts := []broker.Option{
		broker.WithThreshold(64, 1),
		broker.WithWorkers(8),
	}
	if withCache {
		opts = append(opts, broker.WithCache(1024, time.Minute))
	}
	b, err := broker.New(&backend.SQLConnector{Addr: dbAddr}, opts...)
	if err != nil {
		return nil, err
	}
	defer b.Close()

	// The target runs on concurrent client goroutines; math/rand.Rand is
	// not concurrency-safe.
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(42))
	target := func(ctx context.Context, _, _ int) (qos.Fidelity, error) {
		// 85% of the peak asks for one of tonight's hot movies.
		rngMu.Lock()
		movie := rng.Intn(40)
		if rng.Float64() < 0.85 {
			movie = rng.Intn(hotMovies)
		}
		rngMu.Unlock()
		resp := b.Handle(ctx, &broker.Request{
			Payload: []byte(fmt.Sprintf(
				"SELECT theater, showtime FROM schedule WHERE movie = %d ORDER BY showtime", movie)),
			Class: qos.Class1,
		})
		if resp.Err != nil {
			return 0, resp.Err
		}
		return resp.Fidelity, nil
	}
	res, err := workload.ClosedLoop{Concurrency: 16, Requests: peakRequests}.Run(context.Background(), target)
	if err != nil {
		return nil, err
	}
	return &peakResult{
		mean:           res.Latency.Mean(),
		backendQueries: b.Metrics().Histogram("backend_rtt").Count(),
		hitRatio:       b.CacheStats().HitRatio(),
	}, nil
}
