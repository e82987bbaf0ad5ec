// Package qos implements the QoS machinery of the service-broker framework:
// service classes, the paper's binary forward/drop threshold policy, a
// strict-priority queue used by broker schedulers, and token-bucket
// contracts for loosely coupled (contract-based) services.
//
// The paper (§V-B) assigns each client a QoS level; level 1 is the highest
// priority. A broker forwards a request to its backend only while the number
// of outstanding requests is below a per-class share of the broker's
// threshold; otherwise the request is answered immediately with a
// low-fidelity response. Because higher classes retain access to a larger
// share of the queue, lower classes are shed first and priority inversion is
// avoided.
package qos

import (
	"fmt"
	"sync"
	"time"
)

// Class identifies a QoS class. Class 1 is the highest priority; larger
// numbers are lower priority. The zero value is invalid.
type Class int

// The three classes used throughout the paper's evaluation (clients A, B, C).
const (
	Class1 Class = 1 // highest priority
	Class2 Class = 2
	Class3 Class = 3
)

// MaxClass is the largest usable class: the wire carries a request's class
// in one byte.
const MaxClass Class = 255

// Valid reports whether c is a usable class (1..MaxClass).
func (c Class) Valid() bool { return c >= 1 && c <= MaxClass }

// String renders the class as "QoS n".
func (c Class) String() string { return fmt.Sprintf("QoS %d", int(c)) }

// ThresholdPolicy is the paper's binary forward/drop admission rule. A
// request of class c (1..Classes) is admitted while
//
//	outstanding < Threshold × share(c)
//
// where share(c) = (Classes-c+1)/Classes by default, so class 1 may use the
// whole threshold, class 2 of 3 may use two thirds, and class 3 of 3 one
// third. Shares can be overridden per class.
type ThresholdPolicy struct {
	// Threshold is the maximum number of outstanding requests the broker
	// allows toward its backend (the paper uses 20).
	Threshold int
	// Classes is the number of QoS classes (the paper uses 3).
	Classes int
	// Shares optionally overrides the admission share for each class; the
	// map value must be in (0, 1]. Classes not present use the default
	// share.
	Shares map[Class]float64
}

// NewThresholdPolicy returns the paper's policy with the given threshold and
// class count. It panics if either is not positive.
func NewThresholdPolicy(threshold, classes int) *ThresholdPolicy {
	if threshold <= 0 {
		panic("qos: threshold must be positive")
	}
	if classes <= 0 {
		panic("qos: classes must be positive")
	}
	return &ThresholdPolicy{Threshold: threshold, Classes: classes}
}

// Share returns the fraction of the threshold available to class c, clamped
// to classes outside [1, Classes].
func (p *ThresholdPolicy) Share(c Class) float64 {
	if s, ok := p.Shares[c]; ok {
		return s
	}
	k := int(c)
	if k < 1 {
		k = 1
	}
	if k > p.Classes {
		k = p.Classes
	}
	return float64(p.Classes-k+1) / float64(p.Classes)
}

// Limit returns the outstanding-request bound for class c.
func (p *ThresholdPolicy) Limit(c Class) int {
	return p.LimitAt(c, p.Threshold)
}

// LimitAt returns the outstanding-request bound for class c when the
// effective threshold is `threshold` rather than the static Threshold —
// brokers with an adaptive limiter substitute its current value so class
// shares track the measured capacity.
func (p *ThresholdPolicy) LimitAt(c Class, threshold int) int {
	return int(float64(threshold) * p.Share(c))
}

// Admit reports whether a request of class c may be forwarded while
// `outstanding` requests are already in flight to the backend.
func (p *ThresholdPolicy) Admit(c Class, outstanding int) bool {
	return p.AdmitAt(c, outstanding, p.Threshold)
}

// AdmitAt is Admit evaluated at an effective threshold.
func (p *ThresholdPolicy) AdmitAt(c Class, outstanding, threshold int) bool {
	return outstanding < p.LimitAt(c, threshold)
}

// Fidelity grades the quality of a response, reproducing the paper's notion
// that "the longer the processing time a request undergoes, the higher the
// fidelity it receives".
type Fidelity int

const (
	// FidelityFull is a complete answer produced by the backend.
	FidelityFull Fidelity = iota + 1
	// FidelityCached is a previously cached answer served by the broker.
	FidelityCached
	// FidelityDegraded is a reduced-quality answer produced under load
	// (e.g. a stale or partial result).
	FidelityDegraded
	// FidelityBusy is the immediate "system is busy" indication sent when a
	// request is dropped at the broker.
	FidelityBusy
	// FidelityLow is the paper's "low-fidelity message" served when the
	// backend is unreachable: after retries and replica failover are
	// exhausted, the broker answers immediately from stale cache state
	// instead of erroring or hanging.
	FidelityLow
)

// String names the fidelity level.
func (f Fidelity) String() string {
	switch f {
	case FidelityFull:
		return "full"
	case FidelityCached:
		return "cached"
	case FidelityDegraded:
		return "degraded"
	case FidelityBusy:
		return "busy"
	case FidelityLow:
		return "low"
	default:
		return fmt.Sprintf("fidelity(%d)", int(f))
	}
}

// Contract is a token-bucket specification for loosely coupled services: the
// paper envisions contract-based access where "service availability is
// honored only when the incoming traffic [is] within the contracted
// specifications".
type Contract struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewContract creates a contract allowing `rate` requests per second with
// the given burst. It panics if rate or burst is not positive.
func NewContract(rate float64, burst int) *Contract {
	if rate <= 0 {
		panic("qos: contract rate must be positive")
	}
	if burst <= 0 {
		panic("qos: contract burst must be positive")
	}
	return &Contract{rate: rate, burst: float64(burst), tokens: float64(burst), now: time.Now}
}

// SetClock overrides the contract's time source, for deterministic tests.
func (c *Contract) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
	c.last = time.Time{}
}

// Allow consumes one token if available, reporting whether the request is
// within contract.
func (c *Contract) Allow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if !c.last.IsZero() {
		c.tokens += now.Sub(c.last).Seconds() * c.rate
		if c.tokens > c.burst {
			c.tokens = c.burst
		}
	}
	c.last = now
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}

// Tokens returns the current token balance (diagnostics and tests).
func (c *Contract) Tokens() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tokens
}
