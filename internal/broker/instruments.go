package broker

import (
	"fmt"

	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
)

// instruments are the broker's metric handles, resolved once in New so the
// request path never looks a metric up by name (a registry lookup takes the
// registry's mutex and formats the per-class names).
type instruments struct {
	requests, completed, dropped, shed          *metrics.Counter
	idemHits, idemCoalesced                     *metrics.Counter
	cacheHits, coalesceFlights, coalesced       *metrics.Counter
	degradedReplies, busyReplies                *metrics.Counter
	sojournEvictions, expiredInQueue            *metrics.Counter
	retries, backendErrors, degradedServes      *metrics.Counter
	prefetched, prefetchSkipped, prefetchErrors *metrics.Counter

	outstanding, queueLen *metrics.Gauge

	queueSojourn, queueWait, processingTime *metrics.Histogram
	clusterTime, backendRTT                 *metrics.Histogram

	// class holds the per-class handles, class c at index c-1.
	class []classInstruments
}

// classInstruments are the "<name>_class_<k>" handles of one QoS class: the
// request count, the four dispositions it is split into, and the two
// per-class timings.
type classInstruments struct {
	requests, completed, dropped, shed, errors *metrics.Counter
	queueWait, processingTime                  *metrics.Histogram
}

func newInstruments(b *Broker) instruments {
	reg := b.reg
	m := instruments{
		requests:        reg.Counter("requests"),
		completed:       reg.Counter("completed"),
		dropped:         reg.Counter("dropped"),
		shed:            reg.Counter("shed_total"),
		cacheHits:       reg.Counter("cache_hits"),
		degradedReplies: reg.Counter("degraded_replies"),
		busyReplies:     reg.Counter("busy_replies"),
		expiredInQueue:  reg.Counter("expired_in_queue"),
		retries:         reg.Counter("retries_total"),
		backendErrors:   reg.Counter("backend_errors"),
		degradedServes:  reg.Counter("degraded_total"),
		outstanding:     reg.Gauge("outstanding"),
		queueLen:        reg.Gauge("queue_len"),
		queueWait:       reg.Histogram("queue_wait"),
		processingTime:  reg.Histogram("processing_time"),
		backendRTT:      reg.Histogram("backend_rtt"),
		class:           make([]classInstruments, b.policy.Classes),
	}
	// An optional stage's handles exist only when the stage does, so /metrics
	// lists no series for a feature that is off. New registers clustering's,
	// the sojourn budget's and the prefetcher's where it switches those on.
	if b.idem != nil {
		m.idemHits, m.idemCoalesced = reg.Counter("idem_hits"), reg.Counter("idem_coalesced")
	}
	if b.flights != nil {
		m.coalesceFlights, m.coalesced = reg.Counter("coalesce_flights_total"), reg.Counter("coalesced_total")
	}
	for i := range m.class {
		name := func(base string) string { return fmt.Sprintf("%s_class_%d", base, i+1) }
		m.class[i] = classInstruments{
			requests:       reg.Counter(name("requests")),
			completed:      reg.Counter(name("completed")),
			dropped:        reg.Counter(name("dropped")),
			shed:           reg.Counter(name("shed")),
			errors:         reg.Counter(name("errors")),
			queueWait:      reg.Histogram(name("queue_wait")),
			processingTime: reg.Histogram(name("processing_time")),
		}
	}
	return m
}

// forClass returns class c's handles; c is a settled class (see escalate).
func (m *instruments) forClass(c qos.Class) *classInstruments { return &m.class[c-1] }

// RefusedRatio is the share of class c's requests the broker has refused.
// A refusal is either disposition: the threshold check answers StatusShed
// (shed_class_<k>), a contract breach StatusDropped (dropped_class_<k>) —
// the paper's drop ratio counts both. ok is false before the class's first
// request, and for a class the policy does not have.
func (b *Broker) RefusedRatio(c qos.Class) (ratio float64, ok bool) {
	if c < 1 || int(c) > b.policy.Classes {
		return 0, false
	}
	m := b.m.forClass(c)
	requests := m.requests.Value()
	if requests == 0 {
		return 0, false
	}
	return float64(m.dropped.Value()+m.shed.Value()) / float64(requests), true
}
