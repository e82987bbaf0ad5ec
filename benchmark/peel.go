package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/qos"
	"servicebroker/internal/sqldb"
)

// The layer peel replays one connection's request stream, one caller, fixed
// count, at successively deeper public entry points. Nothing inside the
// program is instrumented: a layer's cost is the difference between the
// level that enters above it and the level that enters below it.
//
//	P0  httpserver.Client.Get on the front end     the whole path
//	H   httpserver.Client.Get on a bare server     HTTP parsing and sockets alone
//	P1  frontend.Pool.Do                           below the front end's handler
//	P2  broker.Client.Do (DialGateway)             below the pool
//	P3  Broker.Handle                              below the UDP wire
//	P4  backend.Pool.Do over the SQLConnector      below the broker
//	P5  sqldb.Engine.Exec                          below the sqldb TCP protocol
var peelLevels = []string{"P0", "H", "P1", "P2", "P3", "P4", "P5"}

// span is one call into one level: which request of the stream, where it
// entered, and when, in ns since the peel began.
type span struct {
	seq        int
	level      string
	start, end int64
}

// layerCosts differences adjacent levels into layers. The layers' costs add
// up to P0's by construction. When no request reaches the backend, broker is
// all of P3 and the two layers below it are zero.
func layerCosts(level map[string]float64, backendReached bool) map[string]float64 {
	out := map[string]float64{
		"httpserver": level["H"],
		"frontend":   level["P0"] - level["P1"] - level["H"],
		"pool":       level["P1"] - level["P2"],
		"wire":       level["P2"] - level["P3"],
		"broker":     level["P3"],
		"backend":    0,
		"sqldb":      0,
	}
	if backendReached {
		out["broker"] = level["P3"] - level["P4"]
		out["backend"] = level["P4"] - level["P5"]
		out["sqldb"] = level["P5"]
	}
	return out
}

var layerNames = []string{"httpserver", "frontend", "pool", "wire", "broker", "backend", "sqldb"}

// brokerEntry adapts the three levels that speak broker.Request.
type brokerEntry func(ctx context.Context, req *broker.Request) (*broker.Response, error)

func (do brokerEntry) call(req *request) (reply, error) {
	breq := &broker.Request{Payload: []byte(req.sql), Class: qos.Class(req.class)}
	if req.txn != "" {
		breq.TxnID, breq.TxnStep, breq.IdemKey = req.txn, 1, req.txn
	}
	resp, err := do(context.Background(), breq)
	if err != nil {
		return reply{}, err
	}
	if resp.Status == broker.StatusError {
		return reply{}, fmt.Errorf("broker: %w", resp.Err)
	}
	return reply{status: resp.Status.String(), body: resp.Payload}, nil
}

type backendEntry struct{ pool *backend.Pool }

func (b backendEntry) call(req *request) (reply, error) {
	body, err := b.pool.Do(context.Background(), []byte(req.sql))
	return reply{status: "ok", body: body}, err
}

type engineEntry struct{ engine *sqldb.Engine }

func (e engineEntry) call(req *request) (reply, error) {
	rows, err := e.engine.Exec(req.sql)
	return reply{status: "ok", rows: rows}, err
}

// peel runs the levels, writes the spans file and fills in the per-layer
// self times and allocation counts. A workload without a peel gets zeros and
// an empty spans file.
func peel(res *result, w workload, seed int64, m *mirror, r *rig, outDir string) error {
	spansPath := filepath.Join(outDir, w.name+".spans.jsonl")
	report := func(self, allocs map[string]float64, datagrams float64) {
		for _, layer := range layerNames {
			res.PerLayer[layer+".self_us"] = plain(self[layer], "us")
			res.PerLayer[layer+".allocs_per_req"] = plain(allocs[layer], "count")
		}
		res.PerLayer["wire.datagrams_per_req"] = plain(datagrams, "count")
	}
	if w.peel == 0 {
		report(nil, nil, 0)
		return writeSpans(spansPath, nil)
	}

	// H answers each request with a body as long as the front end's was.
	bodyLen := make([]int, w.peel)
	blob := make([]byte, 1<<16)
	var served atomic.Int64
	bare, err := httpserver.NewServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer bare.Close()
	bare.Handle(route, func(*httpserver.Request) *httpserver.Response {
		i := int(served.Add(1)-1) % w.peel
		resp := httpserver.NewResponse(200, blob[:min(bodyLen[i], len(blob))])
		resp.Header["x-fidelity"], resp.Header["x-broker-status"] = "full", "ok"
		return resp
	})

	front := newHTTPEntry(r.front.Addr())
	defer front.cli.Close()
	bareEntry := newHTTPEntry(bare.Addr().String())
	defer bareEntry.cli.Close()
	pool, err := frontend.NewPool(frontend.PoolConfig{Gateways: []string{r.gateway.Addr().String()}})
	if err != nil {
		return err
	}
	defer pool.Close()
	gw, err := broker.DialGateway(r.gateway.Addr().String())
	if err != nil {
		return err
	}
	defer gw.Close()
	sessions, err := backend.NewPool(r.connector, 1)
	if err != nil {
		return err
	}
	defer sessions.Close()

	entries := map[string]entry{
		"P0": front,
		"H":  bareEntry,
		"P1": brokerEntry(func(ctx context.Context, q *broker.Request) (*broker.Response, error) {
			return pool.Do(ctx, service, q)
		}),
		"P2": brokerEntry(func(ctx context.Context, q *broker.Request) (*broker.Response, error) {
			return gw.Do(ctx, service, q)
		}),
		"P3": brokerEntry(func(ctx context.Context, q *broker.Request) (*broker.Response, error) {
			return r.broker.Handle(ctx, q), nil
		}),
		"P4": backendEntry{sessions},
		"P5": engineEntry{r.engine},
	}

	spans := make([]span, 0, len(peelLevels)*w.peel)
	epoch := time.Now()
	medians, mallocs := map[string]float64{}, map[string]float64{}
	for _, level := range peelLevels {
		if !w.peelBackend && (level == "P4" || level == "P5") {
			continue
		}
		if w.peelBackend && w.rig.cacheEntries > 0 {
			// On a workload that is meant to miss, a replay must not find
			// the previous level's answers in the cache: fill it with
			// other keys first, so every level starts from the same state.
			for id := 0; id < w.rig.cacheEntries; id++ {
				r.broker.Handle(context.Background(), &broker.Request{Payload: []byte(pointRead(id)), Class: qos.Class1})
			}
		}
		s := newStream(w, seed, saltMeasure, 0, level)
		e := entries[level]
		lat := make([]uint32, 0, w.peel)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < w.peel; i++ {
			req := s.next()
			start := time.Now()
			rep, err := e.call(&req)
			end := time.Now()
			spans = append(spans, span{i, level, int64(start.Sub(epoch)), int64(end.Sub(epoch))})
			lat = append(lat, latencyOf(end.Sub(start)))
			if level == "H" {
				continue // the bare server's body is filler
			}
			if outcome, why := judge(&req, rep, err, m); outcome != outcomeOK {
				res.require(false, "peel %s request %d (%s): %s", level, i, req.sql, why)
				return nil
			}
			if level == "P0" {
				bodyLen[i] = len(rep.body)
			}
		}
		runtime.ReadMemStats(&after)
		slices.Sort(lat)
		medians[level] = percentile(lat, 0.5) / 1e3
		// The verification's and the span slice's own allocations are the
		// same at every level but H, and cancel in the differences.
		mallocs[level] = float64(after.Mallocs-before.Mallocs) / float64(w.peel)
	}
	io := gw.IOStats()
	report(layerCosts(medians, w.peelBackend), layerCosts(mallocs, w.peelBackend),
		float64(io.DatagramsIn+io.DatagramsOut)/float64(w.peel))
	return writeSpans(spansPath, spans)
}

// writeSpans writes one JSON object per line: {"seq","level","start_ns","end_ns"}.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(bw, "{\"seq\":%d,\"level\":%q,\"start_ns\":%d,\"end_ns\":%d}\n", s.seq, s.level, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
