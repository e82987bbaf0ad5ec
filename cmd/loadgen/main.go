// Command loadgen drives a front-end web server the way the paper's
// clients did: ab-style (fixed concurrency, fixed request budget) or
// WebStone-style (per-class best-effort populations for a fixed duration).
//
// Usage:
//
//	loadgen -mode ab -url http://127.0.0.1:8080/db?q=SELECT+1 -n 200 -c 40
//	loadgen -mode webstone -url http://127.0.0.1:8080/db?q=x \
//	        -clients 30 -classes 3 -duration 30s
//
// With -admin the driver serves the obs admin endpoints too, registering
// client-observed latency and error metrics ("client.latency",
// "client.latency_class_N", "client.errors", per-fidelity counters) so the
// driver's view of a run and the broker's view can be compared on one scrape.
//
// With -txn-steps N every virtual client issues N-step transactions instead
// of independent requests: consecutive requests share a "txn" id with "step"
// walking 1..N, and the final (mutating) step carries an "idem" idempotency
// key — so a -txn broker escalates late steps under overload and suppresses
// duplicate effects on retry (DESIGN.md §14).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"servicebroker/internal/httpserver"
	"servicebroker/internal/metrics"
	"servicebroker/internal/obs"
	"servicebroker/internal/qos"
	"servicebroker/internal/sketch"
	"servicebroker/internal/workload"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.mode, "mode", "ab", "load model: ab or webstone")
	flag.StringVar(&cfg.url, "url", "", "target URL (http://host:port/path?query)")
	flag.IntVar(&cfg.n, "n", 100, "ab: total requests")
	flag.IntVar(&cfg.c, "c", 10, "ab: concurrency")
	flag.IntVar(&cfg.clients, "clients", 30, "webstone: total clients across classes")
	flag.IntVar(&cfg.classes, "classes", 3, "webstone: QoS classes")
	flag.DurationVar(&cfg.duration, "duration", 30*time.Second, "webstone: run duration")
	flag.DurationVar(&cfg.think, "think", time.Second, "webstone: per-client think time")
	flag.StringVar(&cfg.admin, "admin", "", "admin HTTP address for /metrics (empty disables)")
	flag.Float64Var(&cfg.zipf, "zipf", 0, "key-popularity skew s > 0 draws keys Zipf(s)-distributed; the sampled key id replaces every {key} in the URL query")
	flag.IntVar(&cfg.zipfKeys, "zipf-keys", 1000, "zipf: size of the key universe")
	flag.IntVar(&cfg.hotkeys, "hotkeys", 0, "with -zipf: track the top-N hottest sampled keys client-side for -admin /hotz (0 disables)")
	flag.IntVar(&cfg.txnSteps, "txn-steps", 0, "tag requests as N-step transactions (txn/step query params, idem key on the final step; 0 disables)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// runConfig carries every flag; run validates it.
type runConfig struct {
	mode, url        string
	n, c             int
	clients, classes int
	duration, think  time.Duration
	admin            string
	zipf             float64
	zipfKeys         int
	hotkeys          int
	txnSteps         int
}

// maxBackoff caps how long a retry-after hint can stall one virtual client.
const maxBackoff = 5 * time.Second

// Connection-refused retry policy. During a failover window (the front end
// or a broker restarting) connects fail instantly with ECONNREFUSED; without
// retries every such request counts as an error and inflates failure rates
// in availability ablations. A refused connect is retried with bounded,
// jittered backoff instead; only exhausting the retries scores an error.
const (
	refusedRetries = 4
	refusedBase    = 25 * time.Millisecond
)

// retryableConn reports whether err is a transient connection-level failure
// worth retrying: the peer is not there right now (refused) or dropped the
// connection mid-restart (reset). Application-level failures are not retried.
func retryableConn(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// refusedBackoff returns the jittered wait before retry attempt (0-based):
// base<<attempt plus up to half that again, so synchronized clients do not
// reconnect in lockstep the instant a server returns.
func refusedBackoff(attempt int, randInt63n func(int64) int64) time.Duration {
	d := refusedBase << attempt
	return d + time.Duration(randInt63n(int64(d/2)+1))
}

// getWithRetry issues one GET, retrying refused/reset connections with
// jittered backoff. retries counts into reg's "refused_retries".
func getWithRetry(ctx context.Context, cli *httpserver.Client, path string, q map[string]string, reg *metrics.Registry) (*httpserver.Response, error) {
	resp, err := cli.Get(path, q)
	for attempt := 0; err != nil && retryableConn(err) && attempt < refusedRetries; attempt++ {
		reg.Counter("refused_retries").Inc()
		select {
		case <-ctx.Done():
			return nil, err
		case <-time.After(refusedBackoff(attempt, rand.Int63n)):
		}
		resp, err = cli.Get(path, q)
	}
	return resp, err
}

// parseURL splits http://host:port/path?query into pieces.
func parseURL(raw string) (addr, path string, query map[string]string, err error) {
	rest, ok := strings.CutPrefix(raw, "http://")
	if !ok {
		return "", "", nil, fmt.Errorf("url must start with http://, got %q", raw)
	}
	addr, target, ok := strings.Cut(rest, "/")
	if !ok {
		target = ""
	}
	path = "/" + target
	path, rawQuery, _ := strings.Cut(path, "?")
	query = map[string]string{}
	for _, pair := range strings.Split(rawQuery, "&") {
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		query[k] = unescape(v)
	}
	return addr, path, query, nil
}

// unescape decodes the %XX and + escapes of a query value, so a -url like
// ...?q=SELECT+*+WHERE+id+%3D+{key} carries the decoded text (the client
// re-escapes it on send).
func unescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '+':
			b.WriteByte(' ')
		case s[i] == '%' && i+2 < len(s):
			if hi, ok1 := unhex(s[i+1]); ok1 {
				if lo, ok2 := unhex(s[i+2]); ok2 {
					b.WriteByte(hi<<4 | lo)
					i += 2
					continue
				}
			}
			b.WriteByte(s[i])
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// keyPlaceholder marks where the Zipf-sampled key id lands in the query.
const keyPlaceholder = "{key}"

// hasKeyPlaceholder reports whether any query value embeds {key}.
func hasKeyPlaceholder(query map[string]string) bool {
	for _, v := range query {
		if strings.Contains(v, keyPlaceholder) {
			return true
		}
	}
	return false
}

func run(cfg runConfig) error {
	mode, url := cfg.mode, cfg.url
	n, c, clients, classes := cfg.n, cfg.c, cfg.clients, cfg.classes
	duration, think, admin := cfg.duration, cfg.think, cfg.admin
	if url == "" {
		return fmt.Errorf("-url is required")
	}
	addr, path, query, err := parseURL(url)
	if err != nil {
		return err
	}

	// Key-popularity skew: each request substitutes a Zipf-sampled key id
	// for {key} in the query, so hot keys emerge at the broker's cache and
	// show up on its /hotz page.
	var keys *workload.ZipfKeys
	if cfg.zipf > 0 {
		if !hasKeyPlaceholder(query) {
			return fmt.Errorf("-zipf requires a %s placeholder in the URL query (e.g. q=SELECT+...+WHERE+id+=+%s)", keyPlaceholder, keyPlaceholder)
		}
		if keys, err = workload.NewZipfKeys(cfg.zipfKeys, cfg.zipf, 20030519); err != nil {
			return err
		}
	}

	// Client-observed metrics: what the driver sees end to end (HTTP +
	// wire + broker + backend), mountable on -admin next to the server-side
	// registries for a same-scrape comparison.
	reg := metrics.NewRegistry()

	// Client-side analytics: with -zipf loadgen tracks which sampled keys
	// dominate — a cached fidelity counts as a hit, so the client-side /hotz
	// hit ratio approximates the broker cache's.
	var hk *sketch.Tracker
	if cfg.hotkeys > 0 && keys != nil {
		hk = sketch.NewTracker(sketch.Config{TopK: cfg.hotkeys})
	}

	if admin != "" {
		adminSrv := obs.New()
		adminSrv.MountRegistry("client.", reg)
		if hk != nil {
			adminSrv.AddRows("/hotz", "client", func(w io.Writer, limit int) { hk.Snapshot().WriteRows(w, "client", limit) })
		}
		if err := adminSrv.Start(admin); err != nil {
			return err
		}
		defer adminSrv.Close()
		slog.Info("admin endpoint up", "addr", adminSrv.Addr().String())
	}

	// target issues one HTTP request with the given class, classifying the
	// response by the front end's x-fidelity header. Each virtual client
	// keeps one persistent connection, like a browser.
	target := func(class qos.Class) workload.Target {
		var (
			mu      sync.Mutex
			clients = map[int]*httpserver.Client{}
		)
		clientFor := func(id int) *httpserver.Client {
			mu.Lock()
			defer mu.Unlock()
			cli, ok := clients[id]
			if !ok {
				cli = httpserver.NewClient(addr, httpserver.WithPersistent(1))
				clients[id] = cli
			}
			return cli
		}
		observe := func(start time.Time, fid qos.Fidelity, err error) {
			elapsed := time.Since(start)
			reg.Counter("requests").Inc()
			reg.Histogram("latency").Observe(elapsed)
			if class >= 1 {
				reg.Histogram(fmt.Sprintf("latency_class_%d", class)).Observe(elapsed)
			}
			if err != nil {
				reg.Counter("errors").Inc()
				return
			}
			reg.Counter("fidelity_" + fid.String()).Inc()
		}
		return func(ctx context.Context, client, seq int) (qos.Fidelity, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			cli := clientFor(client)
			q := make(map[string]string, len(query)+1)
			for k, v := range query {
				q[k] = v
			}
			var keyID string
			if keys != nil {
				// Decorrelate the per-class streams so every class does not
				// replay the identical key sequence.
				keyID = strconv.Itoa(keys.Rank(client+int(class)*1000, seq))
				for k, v := range q {
					q[k] = strings.ReplaceAll(v, keyPlaceholder, keyID)
				}
			}
			if class >= 1 {
				q["qos"] = fmt.Sprint(int(class))
			}
			if cfg.txnSteps > 0 {
				// Consecutive requests of one client form one transaction:
				// step walks 1..N, and the final step is the mutation whose
				// idempotency key lets the broker suppress duplicate effects
				// if this client's HTTP retry re-delivers it.
				step := seq%cfg.txnSteps + 1
				q["txn"] = fmt.Sprintf("lg-%d-%d-%d", int(class), client, seq/cfg.txnSteps)
				q["step"] = strconv.Itoa(step)
				if step == cfg.txnSteps {
					q["idem"] = "commit"
				}
				reg.Counter("txn_tagged").Inc()
			}
			start := time.Now()
			resp, err := getWithRetry(ctx, cli, path, q, reg)
			if err != nil {
				observe(start, 0, err)
				return 0, err
			}
			if resp.Status != 200 {
				err := fmt.Errorf("status %d: %s", resp.Status, resp.Body)
				observe(start, 0, err)
				return 0, err
			}
			fid := qos.FidelityFull
			switch resp.Header["x-fidelity"] {
			case "cached":
				fid = qos.FidelityCached
			case "degraded":
				fid = qos.FidelityDegraded
			case "busy":
				fid = qos.FidelityBusy
			}
			observe(start, fid, nil)
			if hk != nil && keyID != "" {
				hk.RecordAccess(keyID, fid == qos.FidelityCached)
				hk.RecordLatency(keyID, time.Since(start))
			}
			// Honor the broker's backpressure hint: a shed response names how
			// long this client should back off before its next request. The
			// hint is capped so a hostile or buggy server cannot stall a run.
			if ms, err := strconv.Atoi(resp.Header["x-retry-after-ms"]); err == nil && ms > 0 {
				backoff := time.Duration(ms) * time.Millisecond
				if backoff > maxBackoff {
					backoff = maxBackoff
				}
				reg.Counter("backoffs").Inc()
				reg.Histogram("backoff_wait").Observe(backoff)
				select {
				case <-ctx.Done():
				case <-time.After(backoff):
				}
			}
			return fid, nil
		}
	}

	switch mode {
	case "ab":
		res, err := workload.ClosedLoop{Concurrency: c, Requests: n}.Run(context.Background(), target(0))
		if err != nil {
			return err
		}
		printResult("ab", res)
		return nil

	case "webstone":
		perClass := clients / classes
		if perClass < 1 {
			perClass = 1
		}
		var groups []workload.Group
		for cl := 1; cl <= classes; cl++ {
			class := qos.Class(cl)
			groups = append(groups, workload.Group{
				Name:      class.String(),
				Class:     class,
				Clients:   perClass,
				Target:    target(class),
				ThinkTime: think,
				Stagger:   duration / 10,
			})
		}
		results, err := workload.Population{Groups: groups, Duration: duration}.Run(context.Background())
		if err != nil {
			return err
		}
		for cl := 1; cl <= classes; cl++ {
			name := qos.Class(cl).String()
			printResult(name, results[name])
		}
		return nil

	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}

func printResult(name string, res *workload.Result) {
	fmt.Printf("%-10s issued=%-7d completed=%-7d dropped=%-7d errors=%-5d mean=%-12v p95=%v\n",
		name, res.Issued, res.Completed, res.Dropped, res.Errors,
		res.Latency.Mean(), res.Latency.Quantile(0.95))
}
