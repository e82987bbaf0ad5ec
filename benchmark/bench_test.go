package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"servicebroker/internal/sqldb"
)

// steadyWindow is a one-second window of n class-1 OK samples with latencies
// 1..n µs.
func steadyWindow(n int) window {
	w := window{elapsed: time.Second}
	for i := 0; i < n; i++ {
		w.samples = append(w.samples, sample{lat: uint32((i + 1) * 1000), class: 1})
	}
	return w
}

func TestWindowMedianDiscardsAStalledWindow(t *testing.T) {
	var windows []window
	for i := 0; i < 5; i++ {
		w := steadyWindow(1000)
		if i == 2 {
			// A stall: a tenth of the answers, each a hundred times slower.
			w.samples = w.samples[:100]
			for j := range w.samples {
				w.samples[j].lat *= 100
			}
		}
		windows = append(windows, w)
	}
	sum := summarize(windows, nil, 2*time.Millisecond)
	if got := sum.ThroughputRPS; got.Median != 1000 || got.Min != 100 || got.Max != 1000 {
		t.Errorf("throughput spread %+v, want median 1000 min 100 max 1000", got)
	}
	if got := sum.P50us.Median; got != 500 {
		t.Errorf("p50 window median %v µs, want 500", got)
	}
	if got := sum.P99us.Median; got != 990 {
		t.Errorf("p99 window median %v µs, want 990", got)
	}
	if got := sum.P99us.Max; got != 9900 {
		t.Errorf("p99 window max %v µs, want the stalled window's 9900", got)
	}
	if got := sum.MaxUs; got != 10000 {
		t.Errorf("pooled max %v µs, want 10000", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []uint32{10, 20, 30, 40}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 10}, {0.25, 10}, {0.5, 20}, {0.51, 30}, {0.99, 40}, {1, 40}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestRefusedAndFailedCountAsMisses(t *testing.T) {
	w := window{elapsed: time.Second, samples: []sample{
		{lat: 1000, class: 1},                          // within the limit
		{lat: 3_000_000, class: 1},                     // answered, late
		{lat: 1000, class: 1, outcome: outcomeRefused}, // fast, but refused
		{lat: 1000, class: 1, outcome: outcomeFailed},  // fast, but wrong
		{lat: 1000, class: 3},                          // not premium
	}}
	tail := []sample{{lat: 1000, class: 1}} // answered after the last window
	sum := summarize([]window{w}, tail, 2*time.Millisecond)
	if sum.Sent != 6 || sum.OK != 4 || sum.Refused != 1 || sum.Failed != 1 {
		t.Fatalf("sent/ok/refused/failed = %d/%d/%d/%d, want 6/4/1/1", sum.Sent, sum.OK, sum.Refused, sum.Failed)
	}
	if got := sum.PremiumShare.Median; got != 0.25 {
		t.Errorf("premium share %v, want 1 of the window's 4 class-1 requests", got)
	}
	if got := sum.FullShare[1].Median; got != 0.5 {
		t.Errorf("class-1 full share %v, want 0.5", got)
	}
	if got := sum.FullShare[3].Median; got != 1 {
		t.Errorf("class-3 full share %v, want 1", got)
	}
	if got := sum.ThroughputRPS.Median; got != 3 {
		t.Errorf("window throughput %v, want the 3 OK answers inside the window", got)
	}
}

func TestSharesAreWindowMedians(t *testing.T) {
	// A stall that sheds half of one window's class 1 is one window in five.
	var windows []window
	for i := 0; i < 5; i++ {
		w := steadyWindow(1000)
		if i == 2 {
			for j := 0; j < 500; j++ {
				w.samples[j].outcome = outcomeRefused
			}
		}
		windows = append(windows, w)
	}
	sum := summarize(windows, nil, 2*time.Millisecond)
	if got := sum.PremiumShare; got.Median != 1 || got.Min != 0.5 {
		t.Errorf("premium share %+v, want median 1 and min 0.5", got)
	}
	if sum.Refused != 500 {
		t.Errorf("%d refused, want the pooled count 500", sum.Refused)
	}
}

func TestSameSeedSameStreamAtEveryLevel(t *testing.T) {
	for _, w := range workloads {
		first := newStream(w, 7, saltMeasure, 0, peelLevels[0])
		others := make([]*stream, 0, len(peelLevels))
		for _, level := range peelLevels[1:] {
			others = append(others, newStream(w, 7, saltMeasure, 0, level))
		}
		otherSeed := newStream(w, 8, saltMeasure, 0, peelLevels[0])
		differs := false
		for i := 0; i < 2000; i++ {
			want := first.next()
			for j, s := range others {
				got := s.next()
				if got.sql != want.sql || got.class != want.class || got.op != want.op {
					t.Fatalf("%s request %d at %s = %+v, at %s = %+v", w.name, i, peelLevels[j+1], got, peelLevels[0], want)
				}
				if want.op == opWrite && got.txn == want.txn {
					t.Fatalf("%s request %d: two passes share transaction %q, the second would replay", w.name, i, got.txn)
				}
			}
			if otherSeed.next().sql != want.sql {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
}

func TestSameSeedSamePoissonSchedule(t *testing.T) {
	w, _ := findWorkload("overload_qos")
	a, b := poissonSchedule(w, 3, saltMeasure, 20000), poissonSchedule(w, 3, saltMeasure, 20000)
	var byClass [4]int
	for i := range a {
		if a[i].at != b[i].at || a[i].req.sql != b[i].req.sql || a[i].req.class != b[i].req.class {
			t.Fatalf("arrival %d differs between two schedules of one seed", i)
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		byClass[a[i].req.class]++
	}
	if rate := float64(len(a)) / a[len(a)-1].at.Seconds(); math.Abs(rate-w.openRate) > 0.03*w.openRate {
		t.Errorf("schedule runs at %.0f rps, want %.0f", rate, w.openRate)
	}
	for c, want := range map[int]float64{1: 0.20, 2: 0.30, 3: 0.50} {
		if got := float64(byClass[c]) / float64(len(a)); math.Abs(got-want) > 0.02 {
			t.Errorf("class %d is %.3f of arrivals, want %.2f", c, got, want)
		}
	}
	if c := poissonSchedule(w, 4, saltMeasure, 10); c[0].at == a[0].at {
		t.Error("seeds 3 and 4 give the same first arrival")
	}
}

func TestMixedStreamWritesOneInTenToItsOwnIDs(t *testing.T) {
	w, _ := findWorkload("mixed_rw")
	owner := map[int]int{}
	for conn := 0; conn < w.conns; conn++ {
		s := newStream(w, 5, saltMeasure, conn, "m")
		writes := 0
		const n = 20000
		for i := 0; i < n; i++ {
			req := s.next()
			if req.op != opWrite {
				continue
			}
			writes++
			if prev, ok := owner[req.id]; ok && prev != conn {
				t.Fatalf("id %d is written by connections %d and %d", req.id, prev, conn)
			}
			owner[req.id] = conn
			if req.score < 1000 || req.score >= 2000 {
				t.Fatalf("written score %v leaves [1000, 2000)", req.score)
			}
		}
		if share := float64(writes) / n; math.Abs(share-0.10) > 0.01 {
			t.Errorf("connection %d writes %.3f of its requests, want 0.10", conn, share)
		}
	}
}

func TestLayerCostsTelescopeToP0(t *testing.T) {
	level := map[string]float64{"P0": 101.5, "H": 22.25, "P1": 70, "P2": 66.5, "P3": 40, "P4": 31, "P5": 12.75}
	for _, backendReached := range []bool{true, false} {
		costs := layerCosts(level, backendReached)
		var sum float64
		for _, layer := range layerNames {
			sum += costs[layer]
		}
		if math.Abs(sum-level["P0"]) > 1e-9 {
			t.Errorf("backendReached=%v: layers add up to %v, P0 is %v", backendReached, sum, level["P0"])
		}
		if !backendReached && (costs["backend"] != 0 || costs["sqldb"] != 0 || costs["broker"] != level["P3"]) {
			t.Errorf("no backend reached: got %v, want broker = P3 and nothing below", costs)
		}
	}
}

func TestCheckBody(t *testing.T) {
	point := request{sql: pointRead(42), class: 1, id: 42}
	if why := checkBody(&point, []byte("id\tname\n42\trecord-000042\n"), nil); why != "" {
		t.Errorf("right point read rejected: %s", why)
	}
	if why := checkBody(&point, []byte("id\tname\n43\trecord-000043\n"), nil); why == "" {
		t.Error("another id's row accepted")
	}
	last := request{id: sqldb.PaperRecordCount - 1}
	if why := checkBody(&last, []byte("id\tname\n41999\trecord-041999\n"), nil); why != "" {
		t.Errorf("right point read of the last id rejected: %s", why)
	}
	write := request{op: opWrite}
	if why := checkBody(&write, []byte(writeReply), nil); why != "" {
		t.Errorf("right write reply rejected: %s", why)
	}
	if why := checkBody(&write, []byte("OK, 0 row(s) affected"), nil); why == "" {
		t.Error("a write that touched no row accepted")
	}
}

func TestCheckRangeAgainstTheEngine(t *testing.T) {
	e := sqldb.NewEngine()
	if err := sqldb.LoadRecords(e, sqldb.PaperRecordCount); err != nil {
		t.Fatal(err)
	}
	const seed = 11
	m, err := newMirror(e, seed)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("mixed_rw")
	s := newStream(w, seed, saltMeasure, 0, "t")
	checked := 0
	for checked < 200 {
		req := s.next()
		if !req.ranged {
			continue
		}
		checked++
		rs, err := e.Exec(req.sql)
		if err != nil {
			t.Fatal(err)
		}
		body := rs.String()
		if why := checkBody(&req, []byte(body), m); why != "" {
			t.Fatalf("engine's own answer rejected: %s", why)
		}
		lines := strings.SplitAfter(body, "\n")
		if len(lines) < 3 {
			continue
		}
		// Dropping a row outside the write set must be noticed; so must a
		// repeated row and a row from outside the window.
		var id int
		for _, r := range rs.Rows {
			if id = int(r[0].(int64)); !m.written[id] {
				break
			}
		}
		if !m.written[id] {
			without := strings.Replace(body, m.line[id]+"\n", "", 1)
			if why := checkBody(&req, []byte(without), m); why == "" {
				t.Fatalf("answer missing unwritten id %d accepted", id)
			}
		}
		if why := checkBody(&req, []byte(body+lines[1]), m); why == "" {
			t.Fatal("answer repeating a row accepted")
		}
		outside := (id + 1) % sqldb.PaperRecordCount
		for m.category[outside] == req.cat {
			outside++
		}
		if why := checkBody(&req, []byte(body+m.line[outside]+"\n"), m); why == "" {
			t.Fatal("answer with a row of another category accepted")
		}
	}
}

func TestBenchmarkJSONNamesWhatIsPrinted(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(list []named) []string {
		out := make([]string, len(list))
		for i, n := range list {
			out[i] = n.Name
		}
		return out
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if got := names(doc.Workloads); !slices.Equal(got, ours) {
		t.Errorf("BENCHMARK.json workloads %v, the harness has %v", got, ours)
	}
	if got := names(doc.EndToEnd); !slices.Equal(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, the harness prints %v", got, endToEndMetrics)
	}
	if got := names(doc.PerLayer); !slices.Equal(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, the harness prints %v", got, perLayerMetrics)
	}
}

func TestLatenessReadsTheQuietQuarterOfSeconds(t *testing.T) {
	// Eight seconds of 100 arrivals each, all 500 µs late; in five of them a
	// stall delays two arrivals by 30 ms, which is each second's p99.
	var late [][]uint32
	for s := 0; s < 8; s++ {
		w := make([]uint32, 100)
		for i := range w {
			w[i] = 500_000
		}
		if s < 5 {
			w[0], w[1] = 30_000_000, 30_000_000
		}
		late = append(late, w)
	}
	p50, p99 := lateness(late)
	if p50.Value != 500 {
		t.Errorf("late p50 %v µs, want 500", p50.Value)
	}
	if p99.Value != 500 || *p99.Max != 30000 {
		t.Errorf("late p99 %v µs (max %v), want the quiet seconds' 500 with the stalls' 30000 as max", p99.Value, *p99.Max)
	}
}
