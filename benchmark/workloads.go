package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"servicebroker/internal/sqldb"
)

// workload is one traffic mix: the stack it needs, how it is driven, and the
// properties the harness checks on every run so the workload keeps meaning
// what its name says.
type workload struct {
	name string
	rig  rigConfig
	kind streamKind

	conns  int           // keep-alive connections (closed loop: callers; open loop: parking slots)
	window time.Duration // window whose per-window statistics are medianed
	limit  time.Duration // class-1 latency limit for premium_within_limit_share
	warmup int           // fixed request count before the measured phase
	peel   int           // requests per level in the traced run; 0 = no peel
	// peelBackend is false when no request of the workload reaches the
	// backend, so the backend and sqldb layers are zero by construction.
	peelBackend bool

	openRate float64 // offered requests per second; 0 = closed loop
}

type streamKind int

const (
	streamHot   streamKind = iota // 64 Zipf(1.1) point reads
	streamCold                    // uniform point reads over every id
	streamMixed                   // 90 % range reads, 10 % tagged writes
	streamQoS                     // uniform point reads, classes 1/2/3 mixed 20/30/50
)

const (
	hotKeys      = 64
	cacheEntries = 4096
	writeSetSize = 1024
)

var workloads = []workload{
	{
		name: "hot_read", kind: streamHot,
		rig:   rigConfig{cacheEntries: cacheEntries, workers: 4},
		conns: 2, window: 500 * time.Millisecond, limit: 2 * time.Millisecond,
		warmup: 20000, peel: 20000,
	},
	{
		name: "cold_read", kind: streamCold,
		rig:   rigConfig{cacheEntries: cacheEntries, workers: 4},
		conns: 2, window: 500 * time.Millisecond, limit: 2 * time.Millisecond,
		warmup: 20000, peel: 20000, peelBackend: true,
	},
	{
		name: "mixed_rw", kind: streamMixed,
		rig: rigConfig{cacheEntries: cacheEntries, workers: 4, txn: true},
		// One request in ten is a write that costs milliseconds, so the
		// callers make only a few hundred requests a second: the windows are
		// longer to keep ten samples beyond each window's p99, and the fixed
		// counts smaller to keep set-up and the peel within seconds.
		conns: 2, window: 2500 * time.Millisecond, limit: 50 * time.Millisecond,
		warmup: 1000, peel: 1000, peelBackend: true,
	},
	{
		// ≈ 900 rps of backend capacity (4 slots × 4 ms) under 2,000 rps
		// offered. 32 connections because HTTP/1.1 carries one outstanding
		// request per connection and shedding starts at 20 outstanding.
		// A window holds 1,000 class-1 requests: ten beyond its p99.
		name: "overload_qos", kind: streamQoS,
		rig:   rigConfig{workers: 8, queryDelay: 4 * time.Millisecond, execSlots: 4},
		conns: 32, window: 2500 * time.Millisecond, limit: 50 * time.Millisecond,
		warmup: 5000, openRate: 2000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one generated input plus what the harness needs to check the
// answer. The program under test receives only sql, class and the txn tags.
type request struct {
	sql   string
	class uint8
	op    uint8

	id          int  // point read or write target
	ranged      bool // range read: category = cat AND score BETWEEN lo AND hi
	cat, lo, hi int
	score       float64 // value a write sets
	txn         string  // transaction id of a write; also its idempotency key
}

// Stream salts keep the warm-up, the measured phase and the open-loop
// schedule on different random sequences of the same seed.
const (
	saltKeys    = 1
	saltWarmup  = 2
	saltMeasure = 3
)

func subSeed(seed int64, salt, conn int) int64 {
	return seed*1_000_003 + int64(salt)*10_007 + int64(conn)
}

// stream produces one connection's request sequence. The same (seed, salt,
// conn) always yields the same sequence, whatever entry point consumes it.
type stream struct {
	kind  streamKind
	rng   *rand.Rand
	zipf  *rand.Zipf
	keys  []int // hot set (streamHot) or this connection's write ids (streamMixed)
	tag   string
	count int
	slot  int // streamMixed: which request of the current ten is the write
}

// newStream builds connection conn's sequence. tag distinguishes the
// transactions of one pass over the stream from another pass's, so replaying
// the stream at another entry point executes its writes again and is not
// answered from the idempotency table.
func newStream(w workload, seed int64, salt, conn int, tag string) *stream {
	s := &stream{kind: w.kind, rng: rand.New(rand.NewSource(subSeed(seed, salt, conn))), tag: tag}
	switch w.kind {
	case streamHot:
		s.keys = rand.New(rand.NewSource(subSeed(seed, saltKeys, 0))).Perm(sqldb.PaperRecordCount)[:hotKeys]
		s.zipf = rand.NewZipf(s.rng, 1.1, 1, hotKeys-1)
	case streamMixed:
		// Each written id has exactly one writer, so "the last acknowledged
		// value" is well defined when the run reads every id back.
		for i, id := range writeSet(seed) {
			if i%w.conns == conn%w.conns {
				s.keys = append(s.keys, id)
			}
		}
		s.tag = fmt.Sprintf("%s%d", tag, conn)
	}
	return s
}

// writeSet is the seeded set of ids mixed_rw updates.
func writeSet(seed int64) []int {
	return rand.New(rand.NewSource(subSeed(seed, saltKeys, 0))).Perm(sqldb.PaperRecordCount)[:writeSetSize]
}

func pointRead(id int) string {
	return "SELECT id, name FROM records WHERE id = " + strconv.Itoa(id)
}

func (s *stream) next() request {
	n := s.count
	s.count++
	switch s.kind {
	case streamHot:
		id := s.keys[s.zipf.Uint64()]
		return request{sql: pointRead(id), class: 1, id: id}
	case streamCold:
		id := s.rng.Intn(sqldb.PaperRecordCount)
		return request{sql: pointRead(id), class: 1, id: id}
	case streamQoS:
		id := s.rng.Intn(sqldb.PaperRecordCount)
		return request{sql: pointRead(id), class: classMix(s.rng.Intn(100)), id: id}
	}
	// Exactly one request in every ten is a write, at a random place among
	// the ten: the write share does not depend on how many requests fit.
	if n%10 == 0 {
		s.slot = s.rng.Intn(10)
	}
	if n%10 == s.slot {
		id := s.keys[s.rng.Intn(len(s.keys))]
		// Written scores lie in [1000, 2000), above every range read's
		// window (≤ 958), so a written row can only leave result sets.
		milli := 1_000_000 + s.rng.Intn(1_000_000)
		return request{
			sql:   fmt.Sprintf("UPDATE records SET score = %d.%03d WHERE id = %d", milli/1000, milli%1000, id),
			class: 1, op: opWrite, id: id, score: float64(milli) / 1000,
			txn: s.tag + "-" + strconv.Itoa(n),
		}
	}
	sql := sqldb.RandomRangeQuery(s.rng)
	r := request{sql: sql, class: 1, ranged: true}
	if _, err := fmt.Sscanf(sql, "SELECT id, name, score FROM records WHERE category = %d AND score BETWEEN %d AND %d", &r.cat, &r.lo, &r.hi); err != nil {
		panic("benchmark: sqldb.RandomRangeQuery changed shape: " + sql)
	}
	return r
}

// classMix maps a uniform draw in [0,100) to the 20/30/50 class mix.
func classMix(p int) uint8 {
	switch {
	case p < 20:
		return 1
	case p < 50:
		return 2
	default:
		return 3
	}
}

// arrival is one entry of the open-loop schedule.
type arrival struct {
	at  time.Duration // intended send time, from the phase start
	req request
}

// poissonSchedule draws n arrivals with exponential gaps at rate per second.
func poissonSchedule(w workload, seed int64, salt, n int) []arrival {
	s := newStream(w, seed, salt, 0, "")
	gaps := rand.New(rand.NewSource(subSeed(seed, salt, 1)))
	out := make([]arrival, n)
	var at float64
	for i := range out {
		at += gaps.ExpFloat64() / w.openRate
		out[i] = arrival{at: time.Duration(at * float64(time.Second)), req: s.next()}
	}
	return out
}

// mirror is the harness's own copy of the fixture, read once from the engine
// before any write, used to check range-read row sets.
type mirror struct {
	line     []string // "id\tname\tscore" as the engine renders the initial row
	category []int
	score    []float64
	written  []bool // id is in the run's write set
	// stable[c] holds the sorted initial scores of category c's rows outside
	// the write set: exactly those rows must appear in a range read.
	stable [100][]float64
}

func newMirror(e *sqldb.Engine, seed int64) (*mirror, error) {
	rs, err := e.Exec("SELECT id, name, score, category FROM records")
	if err != nil {
		return nil, fmt.Errorf("read fixture: %w", err)
	}
	n := len(rs.Rows)
	m := &mirror{line: make([]string, n), category: make([]int, n), score: make([]float64, n), written: make([]bool, n)}
	for _, id := range writeSet(seed) {
		m.written[id] = true
	}
	lines := strings.Split(strings.TrimSuffix(rs.String(), "\n"), "\n")[1:]
	if len(lines) != n {
		return nil, fmt.Errorf("read fixture: %d rows rendered as %d lines", n, len(lines))
	}
	for i, row := range rs.Rows {
		id := int(row[0].(int64))
		m.line[id] = lines[i][:strings.LastIndexByte(lines[i], '\t')]
		m.score[id] = row[2].(float64)
		m.category[id] = int(row[3].(int64))
		if !m.written[id] {
			m.stable[m.category[id]] = append(m.stable[m.category[id]], m.score[id])
		}
	}
	for c := range m.stable {
		sort.Float64s(m.stable[c])
	}
	return m, nil
}

// stableInRange counts the rows outside the write set a range read must return.
func (m *mirror) stableInRange(cat, lo, hi int) int {
	s := m.stable[cat]
	from := sort.SearchFloat64s(s, float64(lo))
	to := sort.Search(len(s), func(i int) bool { return s[i] > float64(hi) })
	return to - from
}

const (
	pointHeader = "id\tname\n"
	rangeHeader = "id\tname\tscore\n"
	writeReply  = "OK, 1 row(s) affected"
)

// checkBody reports why body is not the right answer to req, or "".
func checkBody(req *request, body []byte, m *mirror) string {
	switch {
	case req.op == opWrite:
		if string(body) != writeReply {
			return fmt.Sprintf("write reply %q, want %q", body, writeReply)
		}
	case req.ranged:
		return m.checkRange(req, body)
	default:
		var buf [64]byte
		want := append(buf[:0], pointHeader...)
		want = strconv.AppendInt(want, int64(req.id), 10)
		want = append(want, "\trecord-"...)
		for pad := 100000; pad > 1 && req.id < pad; pad /= 10 {
			want = append(want, '0')
		}
		want = strconv.AppendInt(want, int64(req.id), 10)
		want = append(want, '\n')
		if !bytes.Equal(body, want) {
			return fmt.Sprintf("point read body %q, want %q", body, want)
		}
	}
	return ""
}

// checkRange checks a range read's row set: every row is an initial fixture
// row of the right category inside the score window, no row repeats, and
// every matching row outside the write set is present. A write-set row may be
// missing, because a write may already have moved it out of every window.
func (m *mirror) checkRange(req *request, body []byte) string {
	rest, ok := bytes.CutPrefix(body, []byte(rangeHeader))
	if !ok {
		return fmt.Sprintf("range read header %q", firstLine(body))
	}
	var seen [64]int
	ids, stable := seen[:0], 0
	for len(rest) > 0 {
		var line []byte
		line, rest, ok = bytes.Cut(rest, []byte{'\n'})
		if !ok {
			return "range read row without newline"
		}
		tab := bytes.IndexByte(line, '\t')
		id, err := strconv.Atoi(string(line[:max(tab, 0)]))
		if err != nil || id < 0 || id >= len(m.line) {
			return fmt.Sprintf("range read row %q: bad id", line)
		}
		if string(line) != m.line[id] {
			return fmt.Sprintf("range read row %q, fixture has %q", line, m.line[id])
		}
		if m.category[id] != req.cat || m.score[id] < float64(req.lo) || m.score[id] > float64(req.hi) {
			return fmt.Sprintf("range read row %q outside category %d score %d..%d", line, req.cat, req.lo, req.hi)
		}
		for _, prev := range ids {
			if prev == id {
				return fmt.Sprintf("range read repeats id %d", id)
			}
		}
		ids = append(ids, id)
		if !m.written[id] {
			stable++
		}
	}
	if want := m.stableInRange(req.cat, req.lo, req.hi); stable != want {
		return fmt.Sprintf("range read category %d score %d..%d returned %d unwritten rows, want %d", req.cat, req.lo, req.hi, stable, want)
	}
	return ""
}

func firstLine(b []byte) []byte {
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	return line
}
