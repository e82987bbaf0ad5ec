// Package obs is the framework's operational introspection plane: a small
// admin HTTP server that any daemon (brokerd, frontend, backendd, loadgen,
// sbexp) mounts behind its -admin flag. GET / is the index: one
// "path<TAB>description" line per page the process serves.
//
// A few pages are the server's own and take a whole object: /metrics
// (MountRegistry, MountView), /tracez (SetRecorder), /eventz (SetEventLog),
// plus /healthz, /buildz and /debug/pprof/. Every other page is a row page,
// and there is one rule for those: a subsystem that has rows for a page
// registers a renderer with AddRows, and the page exists — and is listed on
// the index — exactly when something has registered for it. The text of a
// row belongs to the package that owns the snapshot type (broker, registry,
// resilience, overload, sketch, txn, frontend); this package imports none of
// them.
//
// The server is stdlib-only and safe to mount in front of live registries:
// rendering works from point-in-time snapshots, never from live metric
// objects.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"servicebroker/internal/fleet"
	"servicebroker/internal/metrics"
	"servicebroker/internal/trace"
)

// Server is the admin endpoint. The zero value is not usable; call New.
// Mount*, Set* and AddRows calls are safe at any time, including while
// serving.
type Server struct {
	mux   *http.ServeMux
	start time.Time

	mu       sync.Mutex
	mounts   []mount
	rec      *trace.Recorder
	rows     map[string][]rowSource // row page path → its sources
	events   *fleet.Log
	draining bool

	srv *http.Server
	ln  net.Listener
}

type mount struct {
	prefix string
	reg    *metrics.Registry
	// view is set instead of reg for dynamic mounts (MountView): the
	// snapshot is computed per scrape rather than read from a registry.
	view func() metrics.View
}

// rowSource is one AddRows registration.
type rowSource struct {
	name   string
	render func(w io.Writer, limit int)
}

// New returns an admin server with the fixed pages registered. Row pages are
// served by the index handler from whatever AddRows has registered.
func New() *Server {
	s := &Server{mux: http.NewServeMux(), start: time.Now(), rows: make(map[string][]rowSource)}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/buildz", s.handleBuildz)
	s.mux.HandleFunc("/tracez", s.handleTracez)
	s.mux.HandleFunc("/eventz", s.handleEventz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// MountRegistry exposes reg's metrics on /metrics with every name prefixed
// by prefix (use "broker.db." to get broker_db_queue_wait and friends, or ""
// for names that are already fully qualified). Mounting the same registry
// twice under different prefixes exports it twice.
func (s *Server) MountRegistry(prefix string, reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	s.mounts = append(s.mounts, mount{prefix: prefix, reg: reg})
	s.mu.Unlock()
}

// MountView exposes a dynamically computed metrics snapshot on /metrics,
// for stats that live outside a metrics.Registry (per-shard cache counters,
// for example). fn is called once per scrape.
func (s *Server) MountView(prefix string, fn func() metrics.View) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.mounts = append(s.mounts, mount{prefix: prefix, view: fn})
	s.mu.Unlock()
}

// SetRecorder wires the trace recorder backing /tracez.
func (s *Server) SetRecorder(rec *trace.Recorder) {
	s.mu.Lock()
	s.rec = rec
	s.mu.Unlock()
}

// rowPages describes every row page a source may register for.
var rowPages = map[string]string{
	"/loadz":    "live broker load reports (outstanding, threshold, queue, hot)",
	"/poolz":    "broker-pool membership: lease state, health, and failover counters",
	"/breakerz": "per-replica circuit-breaker states",
	"/hotz":     "hot keys: top-k frequency, hit ratio, latency, and workload skew",
	"/txnz":     "active transactions with step/age/accesses, plus idempotency-table accounting",
}

// AddRows registers a source of text rows for one row page (a key of
// rowPages; anything else is a programming error and panics). The page is
// served and listed on the index from the first registration on. A page
// renders its sources in name order, so name is normally the service, pool
// or daemon the rows describe; render writes whole lines, labelled however
// the owning package labels them. limit is the request's ?n= parameter (0
// when absent) for sources whose rows are ranked.
func (s *Server) AddRows(page, name string, render func(w io.Writer, limit int)) {
	if _, ok := rowPages[page]; !ok {
		panic("obs: AddRows for unknown page " + page)
	}
	s.mu.Lock()
	s.rows[page] = append(s.rows[page], rowSource{name: name, render: render})
	s.mu.Unlock()
}

// Handler returns the admin mux (useful for embedding in tests or an
// existing server).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr ("127.0.0.1:0" for ephemeral) and serves in a
// background goroutine. It returns once the listener is bound, so Addr is
// immediately valid.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address, or nil before Start.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the HTTP server if Start was called.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		// Distinguish an intentional graceful shutdown from a crash: probes
		// should retry elsewhere, not page anyone.
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// --- /buildz ----------------------------------------------------------------

func (s *Server) handleBuildz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	version, goVersion := "(devel)", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
	}
	fmt.Fprintf(w, "version=%s\n", version)
	fmt.Fprintf(w, "go=%s\n", goVersion)
	fmt.Fprintf(w, "start=%s\n", s.start.Format(time.RFC3339))
	fmt.Fprintf(w, "uptime=%s\n", time.Since(s.start).Round(time.Millisecond))
	fmt.Fprintf(w, "goroutines=%d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "gomaxprocs=%d\n", runtime.GOMAXPROCS(0))
}

// --- /metrics -------------------------------------------------------------

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	mounts := append([]mount(nil), s.mounts...)
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	for _, m := range mounts {
		v := m.view
		if v == nil {
			v = m.reg.View
		}
		WriteProm(&b, m.prefix, v())
	}
	if b.Len() == 0 {
		b.WriteString("# no metrics registries mounted\n")
	}
	_, _ = w.Write([]byte(b.String()))
}

// WriteProm renders one registry view in the Prometheus text exposition
// format. Metric names get prefix prepended and are then sanitized (dots and
// other invalid characters become underscores). Histograms emit cumulative
// _bucket{le="..."} lines with upper bounds in seconds, plus _sum and _count.
func WriteProm(b *strings.Builder, prefix string, v metrics.View) {
	names := make([]string, 0, len(v.Counters))
	for name := range v.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := PromName(prefix + name)
		fmt.Fprintf(b, "# TYPE %s counter\n%s %d\n", pn, pn, v.Counters[name])
	}

	names = names[:0]
	for name := range v.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := PromName(prefix + name)
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %d\n", pn, pn, v.Gauges[name])
	}

	names = names[:0]
	for name := range v.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap := v.Histograms[name]
		pn := PromName(prefix + name)
		fmt.Fprintf(b, "# TYPE %s histogram\n", pn)
		var cum int64
		for i, n := range snap.Buckets {
			cum += n
			if n == 0 {
				continue
			}
			le := strconv.FormatFloat(metrics.BucketUpperBound(i).Seconds(), 'g', -1, 64)
			fmt.Fprintf(b, "%s_bucket{le=%q} %d", pn, le, cum)
			// OpenMetrics exemplar: the bucket's most recent traced
			// observation, linking the latency band to a /tracez entry.
			if i < len(snap.Exemplars) && snap.Exemplars[i].TraceID != 0 {
				ex := snap.Exemplars[i]
				fmt.Fprintf(b, " # {trace_id=\"%016x\"} %s", ex.TraceID,
					strconv.FormatFloat(ex.Value.Seconds(), 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", pn, snap.Count)
		fmt.Fprintf(b, "%s_sum %s\n", pn, strconv.FormatFloat(snap.Sum.Seconds(), 'g', -1, 64))
		fmt.Fprintf(b, "%s_count %d\n", pn, snap.Count)
	}
}

// PromName sanitizes a dotted metric name into the Prometheus name charset
// [a-zA-Z0-9_:], mapping every other rune to '_' and prefixing '_' when the
// name would start with a digit.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9')
		if !ok {
			b.WriteByte('_')
			continue
		}
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// --- /tracez --------------------------------------------------------------

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rec := s.rec
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if rec == nil {
		fmt.Fprintln(w, "tracez: no trace recorder configured")
		return
	}

	q := r.URL.Query()
	f := trace.Filter{Service: q.Get("service"), Limit: 100}
	if v := q.Get("class"); v != "" {
		if c, err := strconv.Atoi(v); err == nil {
			f.Class = c
		}
	}
	if v := q.Get("n"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			f.Limit = n
		}
	}
	if v := q.Get("min"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			f.MinDuration = d
		}
	}

	traces := rec.Snapshot(f)
	fmt.Fprintf(w, "%d traces (newest first)\n", len(traces))
	for _, t := range traces {
		fmt.Fprintf(w, "trace %s service=%s class=%d status=%s dur=%s",
			t.ID, t.Service, t.Class, t.Status, trace.FormatDuration(t.Duration()))
		if t.Note != "" {
			fmt.Fprintf(w, " note=%q", t.Note)
		}
		fmt.Fprintln(w)
		for _, sp := range t.Spans {
			fmt.Fprintf(w, "  stage=%s dur=%s", sp.Stage, trace.FormatDuration(sp.Duration()))
			if sp.Broker != "" {
				fmt.Fprintf(w, " broker=%s", sp.Broker)
			}
			if sp.Note != "" {
				fmt.Fprintf(w, " note=%q", sp.Note)
			}
			fmt.Fprintln(w)
		}
	}
	// Footer: retention accounting, so a truncated or sampled window is
	// never mistaken for the complete history.
	sampled, discarded := rec.SampleCounts()
	fmt.Fprintf(w, "ring: held=%d evicted=%d sampled=%d discarded=%d\n",
		rec.Len(), rec.Evicted(), sampled, discarded)
}

// --- / (index) and the row pages ----------------------------------------------

// pageInfo is one admin page for the index: its path and a one-line
// description.
type pageInfo struct {
	Path string
	Desc string
}

// pages returns the pages this server answers right now, sorted by path: the
// fixed ones, those whose backing object has been set, and every row page
// with at least one source. Every listed page serves a 200 — the CI smoke
// step walks the index.
func (s *Server) pages() []pageInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []pageInfo{
		{"/", "this index: every mounted admin page with a one-line description"},
		{"/healthz", "liveness probe"},
		{"/buildz", "build, runtime, and uptime information"},
		{"/metrics", "Prometheus-style exposition of every mounted metrics registry"},
		{"/tracez", "recent completed traces with per-stage latency breakdowns"},
		{"/debug/pprof/", "standard net/http/pprof profiling handlers"},
	}
	if s.events != nil {
		out = append(out, pageInfo{"/eventz", "fleet event timeline: lease churn, breaker flips, limit cuts, drains"})
	}
	for page := range s.rows {
		out = append(out, pageInfo{page, rowPages[page]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// handleIndex serves every path no fixed page claims: the page directory at
// exactly "/" (one tab-separated "path<TAB>description" line per page,
// trivially parseable by the CI smoke step), the rows of a registered row
// page, and 404 for anything else.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "admin pages")
		for _, p := range s.pages() {
			fmt.Fprintf(w, "%s\t%s\n", p.Path, p.Desc)
		}
		return
	}
	sources := s.sources(r.URL.Path)
	if len(sources) == 0 {
		http.NotFound(w, r)
		return
	}
	limit, _ := strconv.Atoi(r.URL.Query().Get("n"))
	var b bytes.Buffer
	for _, src := range sources {
		src.render(&b, limit)
	}
	if b.Len() == 0 {
		// Sources with nothing to show yet (a listener before its first
		// report): a listed page still answers with a body.
		fmt.Fprintf(&b, "%s: no rows\n", strings.TrimPrefix(r.URL.Path, "/"))
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}

// sources returns a row page's sources in name order (registration order
// among equal names); none means the page does not exist.
func (s *Server) sources(page string) []rowSource {
	s.mu.Lock()
	out := append([]rowSource(nil), s.rows[page]...)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
