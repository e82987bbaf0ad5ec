package main

import (
	"fmt"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/frontend"
	"servicebroker/internal/qos"
	"servicebroker/internal/sqldb"
)

// service is the broker service name every workload routes to, and route the
// front-end path that maps to it.
const (
	service = "db"
	route   = "/db"
)

// rigConfig is what differs between the workloads' stacks; everything else
// (fixture, single gateway, distributed front end, loopback) is shared.
type rigConfig struct {
	cacheEntries int           // broker result cache; 0 disables it
	workers      int           // broker worker goroutines = backend sessions
	txn          bool          // WithTransactions + WithIdempotency
	queryDelay   time.Duration // sqldb.WithQueryDelay
	execSlots    int           // sqldb.WithExecSlots; 0 = unlimited
}

// rig is the whole HTTP→sqldb path built in-process over loopback sockets:
// sqldb server ← SQLConnector ← broker ← UDP gateway ← distributed front end.
// The benchmark drives it from outside through httpserver.Client and, for the
// layer peel, through each layer's public entry point.
type rig struct {
	engine    *sqldb.Engine
	db        *sqldb.Server
	connector *backend.SQLConnector
	broker    *broker.Broker
	gateway   *broker.Gateway
	front     *frontend.Distributed
}

// newRig loads the 42,000-row fixture and starts every layer. On error the
// layers already started are closed.
func newRig(cfg rigConfig) (r *rig, err error) {
	r = &rig{engine: sqldb.NewEngine()}
	defer func() {
		if err != nil {
			r.Close()
			r = nil
		}
	}()
	if err = sqldb.LoadRecords(r.engine, sqldb.PaperRecordCount); err != nil {
		return r, err
	}
	var dbOpts []sqldb.ServerOption
	if cfg.queryDelay > 0 {
		dbOpts = append(dbOpts, sqldb.WithQueryDelay(cfg.queryDelay))
	}
	if cfg.execSlots > 0 {
		dbOpts = append(dbOpts, sqldb.WithExecSlots(cfg.execSlots))
	}
	if r.db, err = sqldb.NewServer(r.engine, "127.0.0.1:0", dbOpts...); err != nil {
		return r, err
	}
	r.connector = &backend.SQLConnector{Addr: r.db.Addr().String()}

	// The paper's admission configuration: threshold 20, three classes.
	opts := []broker.Option{
		broker.WithThreshold(20, 3),
		broker.WithWorkers(cfg.workers),
		broker.WithCoalescing(),
	}
	if cfg.cacheEntries > 0 {
		opts = append(opts, broker.WithCache(cfg.cacheEntries, 0))
	}
	if cfg.txn {
		opts = append(opts, broker.WithTransactions(), broker.WithIdempotency(0, 0))
	}
	if r.broker, err = broker.New(r.connector, opts...); err != nil {
		return r, err
	}
	if r.gateway, err = broker.NewGateway("127.0.0.1:0", map[string]*broker.Broker{service: r.broker}); err != nil {
		return r, err
	}
	r.front, err = frontend.NewDistributed("127.0.0.1:0", r.gateway.Addr().String(),
		[]frontend.Route{{Pattern: route, Service: service, DefaultClass: qos.Class3}})
	return r, err
}

// Close stops every layer, outermost first, and reports the first failure.
func (r *rig) Close() error {
	var first error
	note := func(what string, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("close %s: %w", what, err)
		}
	}
	if r.front != nil {
		note("front end", r.front.Close())
	}
	if r.gateway != nil {
		note("gateway", r.gateway.Close())
	}
	if r.broker != nil {
		note("broker", r.broker.Close())
	}
	if r.db != nil {
		note("sqldb server", r.db.Close())
	}
	return first
}
