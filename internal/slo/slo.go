// Package slo evaluates per-QoS-class service-level objectives for the
// broker framework. The paper's broker differentiates classes at admission
// time; this package closes the loop by continuously measuring whether each
// class is actually receiving its promised service — the "standardized,
// continuously-evaluated QoS targets" the related work argues every QoS
// architecture needs.
//
// Each class carries two objectives: a latency objective (a fraction of
// successful requests must finish under a threshold) and an availability
// objective (a fraction of requests must succeed at full or cached
// fidelity). Outcomes are recorded into fixed-size time-bucketed rings (the
// tsdb ring design) and evaluated over two windows — a fast window (~5m)
// that reacts quickly and a slow window (~1h) that suppresses blips. The
// burn rate of an objective is
//
//	burn = observed bad fraction / allowed bad fraction
//
// so burn 1 means the class is consuming its error budget exactly at the
// sustainable rate, and burn 10 means ten times too fast. The alert state
// machine pages only when BOTH windows burn hot (the multi-window
// multi-burn-rate pattern): the fast window proves the problem is current,
// the slow window proves it is sustained. Transitions (ok → warning → page
// and back) are logged through slog and exposed on the /sloz admin page
// together with an error-budget gauge and a per-stage latency attribution
// (queue/cache/cluster/wire/backend/retry) that shows where a burning class
// is losing its budget.
package slo

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/trace"
)

// State is an alert state for one class.
type State int

const (
	StateOK State = iota
	StateWarning
	StatePage
)

// String names the state for pages and logs.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarning:
		return "warning"
	case StatePage:
		return "page"
	default:
		return "unknown"
	}
}

// Objective is the service-level objective for one QoS class.
type Objective struct {
	Class qos.Class
	// LatencyTarget is the latency threshold: a successful request slower
	// than this is "bad" for the latency objective.
	LatencyTarget time.Duration
	// LatencyGoal is the fraction of successful requests that must meet
	// LatencyTarget (e.g. 0.99).
	LatencyGoal float64
	// AvailabilityGoal is the fraction of all requests that must succeed
	// (e.g. 0.999). Drops, sheds, and errors are unavailability.
	AvailabilityGoal float64
}

// DefaultObjectives returns the paper's three evaluation classes with
// differentiated targets: the higher the class, the tighter the promise.
func DefaultObjectives() []Objective {
	return []Objective{
		{Class: qos.Class1, LatencyTarget: 250 * time.Millisecond, LatencyGoal: 0.99, AvailabilityGoal: 0.999},
		{Class: qos.Class2, LatencyTarget: 500 * time.Millisecond, LatencyGoal: 0.95, AvailabilityGoal: 0.99},
		{Class: qos.Class3, LatencyTarget: time.Second, LatencyGoal: 0.90, AvailabilityGoal: 0.95},
	}
}

// Config configures an Engine. Zero-valued fields select the defaults noted
// on each field.
type Config struct {
	// Objectives lists the per-class targets (default DefaultObjectives).
	Objectives []Objective
	// FastWindow and SlowWindow are the two burn-rate evaluation windows
	// (defaults 5m and 1h). FastWindow also scopes the per-stage latency
	// attribution: it answers "where is the class losing budget right now".
	FastWindow time.Duration
	SlowWindow time.Duration
	// Resolution is the ring bucket width (default FastWindow/10).
	Resolution time.Duration
	// WarnBurn and PageBurn are the burn-rate thresholds that must hold in
	// BOTH windows to enter warning/page (defaults 2 and 10).
	WarnBurn float64
	PageBurn float64
	// Logger receives state-transition records (default slog.Default()).
	Logger *slog.Logger
	// OnTransition, when set, is invoked on every alert-state change with the
	// class and the state names (ok/warning/page). Daemons use it to feed the
	// fleet event timeline. Called synchronously from Status with an internal
	// lock held: it must return quickly and must not call back into the
	// engine.
	OnTransition func(class int, from, to string)
	// Metrics, when set, receives slo_* gauges on every evaluation.
	Metrics *metrics.Registry
	// Clock overrides the time source for deterministic tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if len(c.Objectives) == 0 {
		c.Objectives = DefaultObjectives()
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= c.FastWindow {
		c.SlowWindow = 12 * c.FastWindow
	}
	if c.Resolution <= 0 {
		c.Resolution = c.FastWindow / 10
	}
	if c.Resolution <= 0 {
		c.Resolution = time.Second
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = 2
	}
	if c.PageBurn <= c.WarnBurn {
		c.PageBurn = 5 * c.WarnBurn
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// stages is the fixed attribution vector; index with stageIndex.
var stages = [...]trace.Stage{
	trace.StageWire,
	trace.StageQueue,
	trace.StageCache,
	trace.StageCluster,
	trace.StageBackend,
	trace.StageRetry,
}

const numStages = len(stages)

func stageIndex(s trace.Stage) int {
	for i, v := range stages {
		if v == s {
			return i
		}
	}
	return -1
}

// bucket is one ring cell: outcome counters plus per-stage time sums for the
// cell's time slice.
type bucket struct {
	total    uint64 // all recorded requests
	availBad uint64 // failed requests (drops, sheds, errors)
	latBad   uint64 // successful requests slower than the latency target
	stageNS  [numStages]int64
}

// classRing holds one class's windowed history.
type classRing struct {
	mu      sync.Mutex
	obj     Objective
	buckets []bucket
	lastIdx int64 // bucket index (unixnano/resolution) of the newest cell

	state      State
	since      time.Time
	everScored bool
}

// Engine records per-class request outcomes and evaluates the SLO state
// machine over them.
type Engine struct {
	cfg     Config
	nBucket int
	classes map[qos.Class]*classRing
	order   []qos.Class
}

// New returns an engine evaluating cfg's objectives.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	n := int(cfg.SlowWindow/cfg.Resolution) + 1
	e := &Engine{cfg: cfg, nBucket: n, classes: make(map[qos.Class]*classRing)}
	for _, o := range cfg.Objectives {
		if !o.Class.Valid() || e.classes[o.Class] != nil {
			continue
		}
		e.classes[o.Class] = &classRing{obj: o, buckets: make([]bucket, n), since: cfg.Clock()}
		e.order = append(e.order, o.Class)
	}
	sort.Slice(e.order, func(i, j int) bool { return e.order[i] < e.order[j] })
	return e
}

// advance rotates the ring to the bucket covering now, zeroing skipped cells.
// Caller holds r.mu.
func (e *Engine) advance(r *classRing, now time.Time) *bucket {
	idx := now.UnixNano() / int64(e.cfg.Resolution)
	if r.lastIdx == 0 {
		r.lastIdx = idx
	}
	for r.lastIdx < idx {
		r.lastIdx++
		b := &r.buckets[int(r.lastIdx%int64(e.nBucket))]
		*b = bucket{}
	}
	return &r.buckets[int(idx%int64(e.nBucket))]
}

// Record registers one finished request of class c: its end-to-end latency
// and whether it was served successfully (full or cached fidelity). Classes
// without an objective are ignored.
func (e *Engine) Record(c qos.Class, latency time.Duration, ok bool) {
	r := e.classes[c]
	if r == nil {
		return
	}
	now := e.cfg.Clock()
	r.mu.Lock()
	b := e.advance(r, now)
	b.total++
	if !ok {
		b.availBad++
	} else if latency > r.obj.LatencyTarget {
		b.latBad++
	}
	r.mu.Unlock()
}

// RecordStage attributes stage time to class c's current window (ignored for
// classes without an objective and unknown stages).
func (e *Engine) RecordStage(c qos.Class, stage trace.Stage, d time.Duration) {
	r := e.classes[c]
	if r == nil || d <= 0 {
		return
	}
	si := stageIndex(stage)
	if si < 0 {
		return
	}
	now := e.cfg.Clock()
	r.mu.Lock()
	b := e.advance(r, now)
	b.stageNS[si] += int64(d)
	r.mu.Unlock()
}

// windowSum sums the last `window` of ring cells ending at now. Caller holds
// r.mu and has advanced the ring.
func (e *Engine) windowSum(r *classRing, window time.Duration) bucket {
	k := int(window / e.cfg.Resolution)
	if k < 1 {
		k = 1
	}
	if k > e.nBucket {
		k = e.nBucket
	}
	var sum bucket
	for j := 0; j < k; j++ {
		b := &r.buckets[int((r.lastIdx-int64(j))%int64(e.nBucket)+int64(e.nBucket))%e.nBucket]
		sum.total += b.total
		sum.availBad += b.availBad
		sum.latBad += b.latBad
		for s := 0; s < numStages; s++ {
			sum.stageNS[s] += b.stageNS[s]
		}
	}
	return sum
}

// burns computes the latency and availability burn rates for one summed
// window.
func burns(obj Objective, w bucket) (latBurn, availBurn float64) {
	if w.total == 0 {
		return 0, 0
	}
	availAllowed := 1 - obj.AvailabilityGoal
	if availAllowed > 0 {
		availBurn = (float64(w.availBad) / float64(w.total)) / availAllowed
	}
	okCount := w.total - w.availBad
	latAllowed := 1 - obj.LatencyGoal
	if okCount > 0 && latAllowed > 0 {
		latBurn = (float64(w.latBad) / float64(okCount)) / latAllowed
	}
	return latBurn, availBurn
}

// ObjectiveStatus reports one objective's burn rates and remaining error
// budget (budget is over the slow window, clamped to [0, 1]).
type ObjectiveStatus struct {
	Goal     float64 `json:"goal"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Budget   float64 `json:"budget"`
}

// StageShare is one stage's share of a class's total attributed time over
// the fast window.
type StageShare struct {
	Stage trace.Stage   `json:"stage"`
	Total time.Duration `json:"total_ns"`
	Share float64       `json:"share"`
}

// ClassStatus is the full evaluated state of one class.
type ClassStatus struct {
	Class         int             `json:"class"`
	State         string          `json:"state"`
	Since         time.Time       `json:"since"`
	LatencyTarget time.Duration   `json:"latency_target_ns"`
	Latency       ObjectiveStatus `json:"latency"`
	Availability  ObjectiveStatus `json:"availability"`
	// FastTotal/SlowTotal are the request counts behind each window.
	FastTotal uint64 `json:"fast_total"`
	SlowTotal uint64 `json:"slow_total"`
	// Stages attributes the class's fast-window time across the request
	// path, largest share first.
	Stages []StageShare `json:"stages"`

	state State
}

// AlertState returns the typed state (the JSON carries the string form).
func (c *ClassStatus) AlertState() State { return c.state }

// Status is the engine's evaluated view across all classes.
type Status struct {
	Classes    []ClassStatus `json:"classes"`
	FastWindow time.Duration `json:"fast_window_ns"`
	SlowWindow time.Duration `json:"slow_window_ns"`
}

// WriteRows renders the status as /sloz rows for a service: the windows,
// then per class its state, both objectives, and the stage attribution.
func (st Status) WriteRows(w io.Writer, service string) {
	fmt.Fprintf(w, "service=%s fast_window=%s slow_window=%s\n", service, st.FastWindow, st.SlowWindow)
	for _, c := range st.Classes {
		fmt.Fprintf(w, "  class=%d state=%s since=%s requests(fast/slow)=%d/%d\n",
			c.Class, c.State, c.Since.Format(time.RFC3339), c.FastTotal, c.SlowTotal)
		fmt.Fprintf(w, "    latency: target=%s goal=%.3f burn(fast/slow)=%.2f/%.2f budget=%.3f\n",
			trace.FormatDuration(c.LatencyTarget), c.Latency.Goal,
			c.Latency.FastBurn, c.Latency.SlowBurn, c.Latency.Budget)
		fmt.Fprintf(w, "    availability: goal=%.3f burn(fast/slow)=%.2f/%.2f budget=%.3f\n",
			c.Availability.Goal,
			c.Availability.FastBurn, c.Availability.SlowBurn, c.Availability.Budget)
		for _, sh := range c.Stages {
			fmt.Fprintf(w, "    stage=%s share=%.3f total=%s\n",
				sh.Stage, sh.Share, trace.FormatDuration(sh.Total))
		}
	}
}

// budget converts a slow-window burn into remaining error budget.
func budget(slowBurn float64) float64 {
	b := 1 - slowBurn
	if b < 0 {
		return 0
	}
	if b > 1 {
		return 1
	}
	return b
}

// Status evaluates every class's burn rates, steps the alert state machine
// (logging transitions), publishes gauges when a metrics registry is
// configured, and returns the per-class statuses sorted by class. Callers
// are expected to invoke Status periodically (the admin page and the tsdb
// probes both do), which is what drives alerting.
func (e *Engine) Status() Status {
	now := e.cfg.Clock()
	out := Status{FastWindow: e.cfg.FastWindow, SlowWindow: e.cfg.SlowWindow}
	for _, c := range e.order {
		r := e.classes[c]
		r.mu.Lock()
		e.advance(r, now)
		fast := e.windowSum(r, e.cfg.FastWindow)
		slow := e.windowSum(r, e.cfg.SlowWindow)

		latFast, availFast := burns(r.obj, fast)
		latSlow, availSlow := burns(r.obj, slow)

		// The class's effective burn is its worst objective; both windows
		// must agree before the state escalates.
		fastBurn := max2(latFast, availFast)
		slowBurn := max2(latSlow, availSlow)
		next := StateOK
		switch {
		case fastBurn >= e.cfg.PageBurn && slowBurn >= e.cfg.PageBurn:
			next = StatePage
		case fastBurn >= e.cfg.WarnBurn && slowBurn >= e.cfg.WarnBurn:
			next = StateWarning
		}
		prev := r.state
		if next != prev || !r.everScored {
			if next != prev {
				lvl := slog.LevelInfo
				if next == StateWarning {
					lvl = slog.LevelWarn
				}
				if next == StatePage {
					lvl = slog.LevelError
				}
				e.cfg.Logger.Log(context.Background(), lvl, "slo state change",
					"class", int(c),
					"from", prev.String(),
					"to", next.String(),
					"fast_burn", fastBurn,
					"slow_burn", slowBurn,
				)
				if e.cfg.OnTransition != nil {
					e.cfg.OnTransition(int(c), prev.String(), next.String())
				}
				r.since = now
			}
			r.state = next
			r.everScored = true
		}

		cs := ClassStatus{
			Class:         int(c),
			State:         r.state.String(),
			Since:         r.since,
			LatencyTarget: r.obj.LatencyTarget,
			Latency: ObjectiveStatus{
				Goal: r.obj.LatencyGoal, FastBurn: latFast, SlowBurn: latSlow, Budget: budget(latSlow),
			},
			Availability: ObjectiveStatus{
				Goal: r.obj.AvailabilityGoal, FastBurn: availFast, SlowBurn: availSlow, Budget: budget(availSlow),
			},
			FastTotal: fast.total,
			SlowTotal: slow.total,
			state:     r.state,
		}
		var totalNS int64
		for s := 0; s < numStages; s++ {
			totalNS += fast.stageNS[s]
		}
		for s := 0; s < numStages; s++ {
			if fast.stageNS[s] == 0 {
				continue
			}
			sh := StageShare{Stage: stages[s], Total: time.Duration(fast.stageNS[s])}
			if totalNS > 0 {
				sh.Share = float64(fast.stageNS[s]) / float64(totalNS)
			}
			cs.Stages = append(cs.Stages, sh)
		}
		sort.Slice(cs.Stages, func(i, j int) bool { return cs.Stages[i].Total > cs.Stages[j].Total })
		r.mu.Unlock()

		if e.cfg.Metrics != nil {
			cls := int(c)
			e.cfg.Metrics.Gauge(fmt.Sprintf("slo_state_class_%d", cls)).Set(int64(r.state))
			e.cfg.Metrics.Gauge(fmt.Sprintf("slo_budget_ppm_class_%d", cls)).Set(int64(budget(slowBurn) * 1e6))
			e.cfg.Metrics.Gauge(fmt.Sprintf("slo_fast_burn_x100_class_%d", cls)).Set(int64(fastBurn * 100))
			e.cfg.Metrics.Gauge(fmt.Sprintf("slo_slow_burn_x100_class_%d", cls)).Set(int64(slowBurn * 100))
		}
		out.Classes = append(out.Classes, cs)
	}
	return out
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Objectives returns the engine's configured objectives sorted by class.
func (e *Engine) Objectives() []Objective {
	out := make([]Objective, 0, len(e.order))
	for _, c := range e.order {
		out = append(out, e.classes[c].obj)
	}
	return out
}
