package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/sqldb"
)

// reply is an entry point's answer in the terms every level shares: the
// broker's disposition and the payload. rows stands in for body at the engine
// level, so rendering the result set stays outside the timed call.
type reply struct {
	status string // "ok", "shed", "dropped" or "error"
	body   []byte
	rows   *sqldb.ResultSet
}

// entry is one way into the stack: the front end's HTTP port or, in the layer
// peel, a deeper layer's public function.
type entry interface {
	call(req *request) (reply, error)
}

var (
	classText   = [4]string{"", "1", "2", "3"}
	busyMessage = []byte(broker.BusyMessage)
)

// httpEntry is one keep-alive connection to the front end.
type httpEntry struct {
	cli   *httpserver.Client
	query map[string]string
}

func newHTTPEntry(addr string) *httpEntry {
	return &httpEntry{
		cli:   httpserver.NewClient(addr, httpserver.WithPersistent(1), httpserver.WithTimeout(10*time.Second)),
		query: make(map[string]string, 5),
	}
}

func (h *httpEntry) call(req *request) (reply, error) {
	clear(h.query)
	h.query["q"] = req.sql
	h.query["qos"] = classText[req.class]
	if req.txn != "" {
		h.query["txn"], h.query["step"], h.query["idem"] = req.txn, "1", req.txn
	}
	resp, err := h.cli.Get(route, h.query)
	if err != nil {
		return reply{}, err
	}
	if resp.Status != 200 {
		return reply{status: "error", body: resp.Body}, nil
	}
	return reply{status: resp.Header["x-broker-status"], body: resp.Body}, nil
}

// judge classifies one answer. A wrong body or an unexpected status is a
// failure and comes with the reason; a shed or dropped request carrying the
// broker's busy message is refused, which the workload may expect.
func judge(req *request, rep reply, err error, m *mirror) (uint8, string) {
	if err != nil {
		return outcomeFailed, "request failed: " + err.Error()
	}
	switch rep.status {
	case "ok":
		body := rep.body
		if rep.rows != nil {
			body = []byte(rep.rows.String())
		}
		if why := checkBody(req, body, m); why != "" {
			return outcomeFailed, why
		}
		return outcomeOK, ""
	case "shed", "dropped":
		if !bytes.HasPrefix(rep.body, busyMessage) {
			// The only other legal refusal is a degraded cached copy.
			if why := checkBody(req, rep.body, m); why != "" {
				return outcomeFailed, "refused with neither the busy message nor a cached copy: " + why
			}
		}
		return outcomeRefused, ""
	}
	return outcomeFailed, fmt.Sprintf("status %q: %s", rep.status, firstLine(rep.body))
}

// phase is what one driven stretch of traffic leaves behind.
type phase struct {
	windows []window
	tail    []sample // completed after the last whole window (open loop)
	elapsed time.Duration

	mu       sync.Mutex
	mismatch string          // first wrong answer, "" when every answer checked out
	acked    map[int]float64 // id → last acknowledged written score

	late [][]uint32 // open loop, per lateWindow: ns each request due in it left after its intended time
}

func (p *phase) note(mismatch string, acked map[int]float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mismatch == "" {
		p.mismatch = mismatch
	}
	for id, v := range acked {
		p.acked[id] = v
	}
}

// lateWindow is the window of the generator's lateness. Every arrival counts,
// not class 1 alone, so it can be shorter than the workload's window and
// still hold twenty arrivals beyond its p99.
const lateWindow = time.Second

// driver owns the generator side of a run: the keep-alive connections and
// what is needed to check answers.
type driver struct {
	w       workload
	seed    int64
	mirror  *mirror
	entries []*httpEntry
}

func newDriver(w workload, seed int64, m *mirror, addr string) *driver {
	d := &driver{w: w, seed: seed, mirror: m}
	for i := 0; i < w.conns; i++ {
		d.entries = append(d.entries, newHTTPEntry(addr))
	}
	return d
}

func (d *driver) Close() {
	for _, e := range d.entries {
		e.cli.Close()
	}
}

func (d *driver) streams(salt int, tag string) []*stream {
	out := make([]*stream, d.w.conns)
	for c := range out {
		out[c] = newStream(d.w, d.seed, salt, c, tag)
	}
	return out
}

// warmUp sends the workload's fixed warm-up count and reports the first
// wrong answer. It is closed loop on every workload, so its length is work
// done and not a schedule waited out.
func (d *driver) warmUp() string {
	p := &phase{acked: map[int]float64{}}
	d.closedSlice(p, d.streams(saltWarmup, "w"), (d.w.warmup+d.w.conns-1)/d.w.conns, 0)
	return p.mismatch
}

// measure drives the workload for dur, cut into windows.
func (d *driver) measure(dur time.Duration) *phase {
	p := &phase{acked: map[int]float64{}}
	n := int(dur / d.w.window)
	start := time.Now()
	if d.w.openRate > 0 {
		// A fifth more arrivals than the rate needs, cut to those due before dur.
		schedule := poissonSchedule(d.w, d.seed, saltMeasure, int(d.w.openRate*dur.Seconds()*1.2)+1000)
		schedule = schedule[:sort.Search(len(schedule), func(i int) bool { return schedule[i].at >= dur })]
		results, done, late := d.openLoop(p, schedule)
		p.elapsed = time.Since(start)
		p.windows, p.late = make([]window, n), make([][]uint32, dur/lateWindow)
		for i := range p.windows {
			p.windows[i] = window{elapsed: d.w.window}
		}
		for i, sm := range results {
			if w := int(done[i] / d.w.window); w < n {
				p.windows[w].samples = append(p.windows[w].samples, sm)
			} else {
				p.tail = append(p.tail, sm)
			}
			if w := int(schedule[i].at / lateWindow); w < len(p.late) {
				p.late[w] = append(p.late[w], late[i])
			}
		}
		return p
	}
	streams := d.streams(saltMeasure, "m")
	for i := 0; i < n; i++ {
		p.windows = append(p.windows, d.closedSlice(p, streams, 0, d.w.window))
	}
	p.elapsed = time.Since(start)
	return p
}

// closedSlice runs one caller per connection, each sending its next request
// when the previous answer arrives: the front-end worker of the paper's ab
// method. Each caller sends perConn requests (perConn > 0) or stops at dur.
func (d *driver) closedSlice(p *phase, streams []*stream, perConn int, dur time.Duration) window {
	var (
		wg      sync.WaitGroup
		perCall = make([][]sample, len(streams))
		start   = time.Now()
	)
	for c, s := range streams {
		capacity := perConn
		if perConn == 0 {
			capacity = int(dur.Seconds() * 40000)
		}
		perCall[c] = make([]sample, 0, capacity)
		wg.Add(1)
		go func(c int, s *stream) {
			defer wg.Done()
			acked := map[int]float64{}
			var mismatch string
			for n := 0; (perConn == 0 || n < perConn) && (dur == 0 || time.Since(start) < dur); n++ {
				req := s.next()
				// Latency is from send: generating the request and checking
				// the previous answer stay outside it.
				sent := time.Now()
				rep, err := d.entries[c].call(&req)
				lat := time.Since(sent)
				outcome, why := judge(&req, rep, err, d.mirror)
				if why != "" && mismatch == "" {
					mismatch = fmt.Sprintf("connection %d (%s): %s", c, req.sql, why)
				}
				if req.op == opWrite && outcome == outcomeOK {
					acked[req.id] = req.score
				}
				perCall[c] = append(perCall[c], sample{lat: latencyOf(lat), class: req.class, op: req.op, outcome: outcome})
			}
			p.note(mismatch, acked)
		}(c, s)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	for _, s := range perCall {
		w.samples = append(w.samples, s...)
	}
	return w
}

// openLoop sends the schedule's arrivals at their intended times whatever the
// answers do. Each connection takes the next unsent arrival, sleeps until it
// is due and sends it; when every connection is busy the arrival leaves late,
// and its latency, counted from the intended time, includes the wait.
// A plain sleep paces it: a spinning pacer starves the stack on two cores.
// It returns each arrival's sample, completion time and lateness in ns.
func (d *driver) openLoop(p *phase, schedule []arrival) ([]sample, []time.Duration, []uint32) {
	results := make([]sample, len(schedule))
	done := make([]time.Duration, len(schedule))
	late := make([]uint32, len(schedule))
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		start = time.Now()
	)
	for c := range d.entries {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mismatch string
			for {
				i := int(next.Add(1) - 1)
				if i >= len(schedule) {
					break
				}
				a := &schedule[i]
				if wait := a.at - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				rep, err := d.entries[c].call(&a.req)
				done[i] = time.Since(start)
				outcome, why := judge(&a.req, rep, err, d.mirror)
				if why != "" && mismatch == "" {
					mismatch = fmt.Sprintf("arrival %d (%s): %s", i, a.req.sql, why)
				}
				late[i] = latencyOf(sent - a.at)
				results[i] = sample{lat: latencyOf(done[i] - a.at), class: a.req.class, op: a.req.op, outcome: outcome}
			}
			p.note(mismatch, nil)
		}(c)
	}
	wg.Wait()
	return results, done, late
}
