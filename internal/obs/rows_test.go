package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/fleet"
	"servicebroker/internal/registry"
	"servicebroker/internal/resilience"
	"servicebroker/internal/sketch"
	"servicebroker/internal/txn"
)

func fetch(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Result().StatusCode, string(body)
}

// TestRowPagesGolden pins the exact text of one populated row set per row
// page. The expected bodies were captured from the typed Add*Source handlers
// this package had before the owners rendered their own rows, fed the same
// snapshots, so the move is byte for byte.
func TestRowPagesGolden(t *testing.T) {
	at := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	hot := sketch.Snapshot{
		Keys: []sketch.HotKey{
			{Key: "movie-42", Count: 90, Err: 2, RatePerSec: 7.5, HitRatio: 0.8889, MeanLatencyUs: 2000, P95LatencyUs: 3500},
			{Key: "movie 7", Count: 10, RatePerSec: 0.8333, HitRatio: 0.5, MeanLatencyUs: 150.4, P95LatencyUs: 900},
		},
		TotalAccesses: 120, TotalHits: 90, Skew: 1.234, MemoryBytes: 65536, Elapsed: 12400 * time.Millisecond,
	}
	type source struct {
		name   string
		render func(w io.Writer, limit int)
	}
	for _, tc := range []struct {
		name    string
		path    string // the page, with its query
		sources []source
		want    string
	}{
		{"loadz plain", "/loadz", []source{
			{"mail", func(w io.Writer, _ int) {
				fmt.Fprintln(w, broker.LoadReport{Service: "mail", Outstanding: 1, Threshold: 8}.Row())
			}},
			{"db", func(w io.Writer, _ int) {
				fmt.Fprintln(w, broker.LoadReport{Service: "db", Outstanding: 5, Threshold: 10, QueueLen: 2, Hot: true}.Row())
			}},
		},
			"service=db outstanding=5 threshold=10 queue=2 hot=true\n" +
				"service=mail outstanding=1 threshold=8 queue=0 hot=false\n"},
		{"poolz", "/poolz", []source{
			{"frontend", func(w io.Writer, _ int) {
				registry.WritePool(w, "frontend", []registry.PoolView{
					{Service: "db", Addr: "127.0.0.1:7101", Source: "lease", State: "live",
						TTLRemaining: 2500 * time.Millisecond, Renewals: 4, Outstanding: 3, Threshold: 16, QueueLen: 1},
					{Service: "db", Addr: "127.0.0.1:7102", Source: "static", State: "live/open",
						Hot: true, Failures: 5, Failovers: 2, LastError: "dial refused"},
				})
			}},
			{"empty", func(w io.Writer, _ int) { registry.WritePool(w, "empty", nil) }},
		},
			"pool=empty (no members)\n" +
				"pool=frontend service=db addr=127.0.0.1:7101 source=lease state=live ttl=2.5s renewals=4 outstanding=3/16 queue=1 cool failures=0 failovers=0\n" +
				"pool=frontend service=db addr=127.0.0.1:7102 source=static state=live/open ttl=0s renewals=0 outstanding=0/0 queue=0 hot failures=5 failovers=2 last_error=\"dial refused\"\n"},
		{"breakerz", "/breakerz", []source{{"db", func(w io.Writer, _ int) {
			resilience.Snapshot{Name: "db#0", State: resilience.StateClosed, Successes: 12}.WriteRow(w, "db")
			resilience.Snapshot{Name: "db#1", State: resilience.StateOpen, ConsecutiveFailures: 3, Failures: 3, Opens: 1,
				LastTransition: at}.WriteRow(w, "db")
		}}},
			"service=db replica=db#0 state=closed consecutive_failures=0 successes=12 failures=0 opens=0\n" +
				"service=db replica=db#1 state=open consecutive_failures=3 successes=0 failures=3 opens=1 last_transition=2026-08-05T12:00:00Z\n"},
		{"hotz", "/hotz", []source{{"db", func(w io.Writer, limit int) {
			broker.CoalesceStats{Flights: 30, Coalesced: 10, Shared: 9, Inflight: 1}.WriteRow(w, "db")
			hot.WriteRows(w, "db", limit)
		}}},
			"service=db coalesce: flights=30 coalesced=10 shared=9 inflight=1 backend_trips_saved=25.0%\n" +
				"service=db accesses=120 hit_ratio=0.750 skew=1.23 tracked=2 memory=65536B elapsed=12s\n" +
				"  #1   key=\"movie-42\" count=90(±2) rate=7.50/s hit_ratio=0.889 mean=2ms p95=3.5ms\n" +
				"  #2   key=\"movie 7\" count=10(±0) rate=0.83/s hit_ratio=0.500 mean=150µs p95=900µs\n"},
		{"hotz limited", "/hotz?n=1", []source{{"db", func(w io.Writer, limit int) { hot.WriteRows(w, "db", limit) }}},
			"service=db accesses=120 hit_ratio=0.750 skew=1.23 tracked=2 memory=65536B elapsed=12s\n" +
				"  #1   key=\"movie-42\" count=90(±2) rate=7.50/s hit_ratio=0.889 mean=2ms p95=3.5ms\n"},
		{"hotz idle coalescing", "/hotz", []source{{"db", func(w io.Writer, _ int) { broker.CoalesceStats{}.WriteRow(w, "db") }}},
			"service=db coalesce: flights=0 coalesced=0 shared=0 inflight=0 backend_trips_saved=0.0%\n"},
		{"txnz", "/txnz", []source{
			{"supply", func(w io.Writer, _ int) { txn.Snapshot{Completed: 1}.WriteRows(w, "supply", nil) }},
			{"db", func(w io.Writer, _ int) {
				txn.Snapshot{
					Active: []txn.ActiveTxn{
						{ID: "order-7", Step: 2, Age: 1500 * time.Millisecond, Idle: 250 * time.Microsecond, Accesses: 3, Compensations: 1},
					},
					Completed: 4, Aborted: 2, Abandoned: 1, CompensationsRun: 3, CompensationsFailed: 1, TTL: 30 * time.Second,
				}.WriteRows(w, "db", &txn.IdemStats{
					Size: 1, Capacity: 32, TTL: 5 * time.Minute, Hits: 2, Coalesced: 1, Recorded: 3, Restored: 1, Expired: 5, Evicted: 4, ReplayEvicted: 6})
			}},
		},
			"service=db active=1 completed=4 aborted=2 abandoned=1 compensations(run/failed)=3/1 ttl=30s\n" +
				"  idempotency: size=1/32 ttl=300s hits=2 coalesced=1 recorded=3 restored=1 expired=5 evicted=4 replay_evicted=6\n" +
				"  txn=order-7 step=2 age=1.5s idle=250µs accesses=3 compensations=1\n" +
				"service=supply active=0 completed=1 aborted=0 abandoned=0 compensations(run/failed)=0/0 ttl=none\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			page, _, _ := strings.Cut(tc.path, "?")
			for _, src := range tc.sources {
				s.AddRows(page, src.name, src.render)
			}
			code, body := fetch(t, s, tc.path)
			if code != 200 || body != tc.want {
				t.Errorf("GET %s = %d\n got %q\nwant %q", tc.path, code, body, tc.want)
			}
		})
	}
}

// indexPaths returns the paths the index lists, failing on a line without a
// description.
func indexPaths(t *testing.T, s *Server) []string {
	t.Helper()
	code, body := fetch(t, s, "/")
	if code != 200 {
		t.Fatalf("GET / = %d", code)
	}
	var paths []string
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		path, desc, ok := strings.Cut(sc.Text(), "\t")
		if !ok || !strings.HasPrefix(path, "/") {
			continue
		}
		if desc == "" {
			t.Fatalf("page %q has no description", path)
		}
		paths = append(paths, path)
	}
	return paths
}

// TestIndexListsExactlyWhatIsRegistered is the index invariant: every listed
// page answers 200 with a body, every page something registered for is
// listed, and a row page nothing registered for neither is listed nor exists.
func TestIndexListsExactlyWhatIsRegistered(t *testing.T) {
	s := New()
	bare := indexPaths(t, s)
	for _, p := range bare {
		if code, body := fetch(t, s, p); code != 200 || strings.TrimSpace(body) == "" {
			t.Errorf("listed page %s = %d %q, want 200 with a body", p, code, body)
		}
	}
	for page := range rowPages {
		if code, _ := fetch(t, s, page); code != 404 {
			t.Errorf("GET %s with no source = %d, want 404", page, code)
		}
	}
	for _, p := range []string{"/eventz", "/nonsense"} {
		if code, _ := fetch(t, s, p); code != 404 {
			t.Errorf("GET %s with nothing behind it = %d, want 404", p, code)
		}
	}

	s.SetEventLog(fleet.NewLog(0, nil))
	registered := []string{"/eventz"}
	for page := range rowPages {
		if page == "/txnz" {
			continue // stays unregistered
		}
		s.AddRows(page, "svc", func(w io.Writer, _ int) { fmt.Fprintln(w, "service=svc row") })
		registered = append(registered, page)
	}

	listed := make(map[string]bool)
	for _, p := range indexPaths(t, s) {
		listed[p] = true
		code, body := fetch(t, s, p)
		if code != 200 || strings.TrimSpace(body) == "" {
			t.Errorf("listed page %s = %d %q, want 200 with a body", p, code, body)
		}
	}
	for _, p := range append(registered, bare...) {
		if !listed[p] {
			t.Errorf("%s is served but not on the index", p)
		}
	}
	if want := len(registered) + len(bare); len(listed) != want {
		t.Errorf("index lists %d pages, want %d: %v", len(listed), want, listed)
	}
	if code, _ := fetch(t, s, "/txnz"); listed["/txnz"] || code != 404 {
		t.Errorf("unregistered /txnz: listed=%v status=%d, want unlisted 404", listed["/txnz"], code)
	}
}

func TestAddRowsRejectsUnknownPage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddRows accepted a page with no description")
		}
	}()
	New().AddRows("/nonsensez", "svc", func(io.Writer, int) {})
}

// A page whose sources have nothing to show yet still answers with a body.
func TestRowPageWithoutRowsSaysSo(t *testing.T) {
	s := New()
	s.AddRows("/loadz", "frontend", func(io.Writer, int) {})
	if code, body := fetch(t, s, "/loadz"); code != 200 || body != "loadz: no rows\n" {
		t.Fatalf("/loadz = %d %q", code, body)
	}
}

// Sources of one page render in name order whatever the registration order,
// and equal names keep theirs.
func TestRowSourcesRenderInNameOrder(t *testing.T) {
	s := New()
	for _, name := range []string{"web", "db", "mail", "db"} {
		s.AddRows("/loadz", name, func(w io.Writer, _ int) { fmt.Fprintln(w, name) })
	}
	if _, body := fetch(t, s, "/loadz"); body != "db\ndb\nmail\nweb\n" {
		t.Fatalf("/loadz = %q", body)
	}
}
