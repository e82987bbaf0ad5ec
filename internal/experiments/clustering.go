// Package experiments contains the end-to-end testbeds that regenerate
// every table and figure of the paper's evaluation (§V), plus ablation
// studies for the design choices the paper argues qualitatively. Each
// experiment builds the full stack from this repository's substrates —
// clients, front-end broker, UDP wire, backend web servers, SQL database —
// and reports results in the paper's units (paper seconds), independent of
// the configured time compression.
package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/cluster"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/sqldb"
	"servicebroker/internal/workload"
)

// ClusteringConfig parameterizes the request clustering experiment
// (paper §V-A, Figure 7).
//
// Testbed chain, mirroring Figure 6:
//
//	ab-style clients → front-end broker (clusters requests) → backend web
//	server (MaxClients) → CGI script → database (connection per script run)
//
// The backend script pays a database connection handshake per access — the
// overhead that clustering amortizes — and repeats the query workload once
// per clustered request, exactly as in the paper.
type ClusteringConfig struct {
	// Records is the database fixture size (the paper uses 42,000).
	Records int
	// Concurrency is the number of simultaneous clients (the paper uses 40).
	Concurrency int
	// Requests is the total request budget per degree point.
	Requests int
	// MaxClients caps simultaneous backend requests (the paper uses 5).
	MaxClients int
	// Degrees are the clustering degrees to sweep (x axis of Figure 7).
	Degrees []int
	// HandshakeDelay is the per-script-run database connection cost.
	HandshakeDelay time.Duration
	// BatchWait is how long the broker's batcher waits to fill a batch.
	BatchWait time.Duration
}

// DefaultClusteringConfig returns the paper's parameters at test-friendly
// fixture scale.
func DefaultClusteringConfig() ClusteringConfig {
	return ClusteringConfig{
		Records:        sqldb.PaperRecordCount,
		Concurrency:    40,
		Requests:       280,
		MaxClients:     5,
		Degrees:        []int{1, 2, 4, 5, 8, 10, 20, 40},
		HandshakeDelay: 25 * time.Millisecond,
		BatchWait:      25 * time.Millisecond,
	}
}

// clusteringStack is one fully assembled Figure 6 testbed.
type clusteringStack struct {
	db      *sqldb.Server
	web     *httpserver.Server
	brk     *broker.Broker
	queries []string
}

// newClusteringStack builds database → backend web server → broker.
func newClusteringStack(cfg ClusteringConfig, degree int) (*clusteringStack, error) {
	engine := sqldb.NewEngine()
	if err := sqldb.LoadRecords(engine, cfg.Records); err != nil {
		return nil, err
	}
	db, err := sqldb.NewServer(engine, "127.0.0.1:0",
		sqldb.WithHandshakeDelay(cfg.HandshakeDelay))
	if err != nil {
		return nil, err
	}

	// The backend web server's CGI script: connect to the database (paying
	// the handshake), run the query n times, return the last result.
	web, err := httpserver.NewServer("127.0.0.1:0",
		httpserver.WithMaxClients(cfg.MaxClients))
	if err != nil {
		db.Close()
		return nil, err
	}
	web.Handle("/script", func(req *httpserver.Request) *httpserver.Response {
		sql, n := req.Query["q"], 1
		if s := req.Query["n"]; s != "" {
			var err error
			if n, err = strconv.Atoi(s); err != nil || n < 1 || n > sqldb.MaxRepeat {
				return httpserver.Error(400, "n must be 1 to "+strconv.Itoa(sqldb.MaxRepeat))
			}
		}
		conn, err := sqldb.Connect(db.Addr().String())
		if err != nil {
			return httpserver.Error(500, err.Error())
		}
		defer conn.Close()
		var table []byte
		for i := 0; i < n; i++ {
			if table, err = conn.Query(sql); err != nil {
				return httpserver.Error(500, err.Error())
			}
		}
		return httpserver.Text(string(table))
	})

	// The broker's backend access: translate the (possibly repeat-wrapped)
	// SQL payload into one script invocation over a persistent HTTP
	// session.
	webClient := httpserver.NewClient(web.Addr().String(), httpserver.WithPersistent(cfg.Concurrency))
	connector := &backend.FuncConnector{
		ServiceName: "dbscript",
		DoFn: func(ctx context.Context, payload []byte) ([]byte, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sql, times := sqldb.ParseRepeat(string(payload))
			resp, err := webClient.Get("/script", map[string]string{
				"q": sql, "n": strconv.Itoa(times),
			})
			if err != nil {
				return nil, err
			}
			if resp.Status != 200 {
				return nil, fmt.Errorf("experiments: script status %d: %s", resp.Status, resp.Body)
			}
			return resp.Body, nil
		},
	}

	brokerOpts := []broker.Option{
		broker.WithThreshold(cfg.Concurrency*2, 1),
		broker.WithWorkers(cfg.Concurrency),
	}
	if degree > 1 {
		brokerOpts = append(brokerOpts,
			broker.WithClustering(cluster.RepeatCombiner{}, degree, cfg.BatchWait))
	}
	brk, err := broker.New(connector, brokerOpts...)
	if err != nil {
		web.Close()
		db.Close()
		return nil, err
	}

	// The paper's clients repeatedly request the same front-end page whose
	// script issues one random query; clustering requires identical
	// queries, so the testbed pins one representative query per run (the
	// broker would cluster per distinct query in production). The predicate
	// deliberately touches only unindexed columns: the paper's cost model
	// is "a search operation involves traversal of database tables", and an
	// index probe would erase the per-query work that large clustering
	// degrees serialize.
	return &clusteringStack{
		db:  db,
		web: web,
		brk: brk,
		queries: []string{
			"SELECT id, name, score FROM records WHERE score BETWEEN 100 AND 140 AND name LIKE 'record-%'",
		},
	}, nil
}

func (s *clusteringStack) close() {
	s.brk.Close()
	s.web.Close()
	s.db.Close()
}

// RunClustering sweeps the degree of clustering and returns the Figure 7
// series: x = degree, y = mean response time in milliseconds.
func RunClustering(ctx context.Context, cfg ClusteringConfig) (*metrics.Series, error) {
	if len(cfg.Degrees) == 0 {
		return nil, fmt.Errorf("experiments: no degrees to sweep")
	}
	series := &metrics.Series{Name: "response time (ms)"}
	for _, degree := range cfg.Degrees {
		mean, err := runClusteringPoint(ctx, cfg, degree)
		if err != nil {
			return nil, fmt.Errorf("experiments: degree %d: %w", degree, err)
		}
		series.Add(float64(degree), float64(mean.Microseconds())/1000.0)
	}
	return series, nil
}

// runClusteringPoint measures one degree setting.
func runClusteringPoint(ctx context.Context, cfg ClusteringConfig, degree int) (time.Duration, error) {
	stack, err := newClusteringStack(cfg, degree)
	if err != nil {
		return 0, err
	}
	defer stack.close()

	query := stack.queries[0]
	target := func(ctx context.Context, _, _ int) (qos.Fidelity, error) {
		resp := stack.brk.Handle(ctx, &broker.Request{
			Payload: []byte(query),
			Class:   qos.Class1,
			NoCache: true,
		})
		if resp.Err != nil {
			return 0, resp.Err
		}
		return resp.Fidelity, nil
	}
	res, err := workload.ClosedLoop{Concurrency: cfg.Concurrency, Requests: cfg.Requests}.Run(ctx, target)
	if err != nil {
		return 0, err
	}
	if res.Errors > 0 {
		return 0, fmt.Errorf("experiments: %d request errors at degree %d", res.Errors, degree)
	}
	return res.Latency.Mean(), nil
}
