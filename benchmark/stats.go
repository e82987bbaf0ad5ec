package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Request outcomes as the harness classifies them. Only outcomeOK counts as a
// full-fidelity answer; refused (shed or dropped by admission control) and
// failed (transport error, non-200, wrong body) both miss every latency limit.
const (
	outcomeOK uint8 = iota
	outcomeRefused
	outcomeFailed
)

// Operation kinds, so mixed_rw can split its latency by read and write.
const (
	opRead uint8 = iota
	opWrite
)

// sample is one request as the generator saw it. It is pointer-free so the
// sample buffers are never scanned by the collector.
type sample struct {
	lat     uint32 // ns from send (closed loop) or intended send (open loop), saturating
	class   uint8
	op      uint8
	outcome uint8
}

// window is one stretch of the measured phase: the requests that completed
// in it and how long it lasted.
type window struct {
	samples []sample
	elapsed time.Duration
}

func latencyOf(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// percentile returns the nearest-rank q-quantile of sorted (ascending) values,
// or 0 when there are none.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// spread is the median of a metric's per-window values with the extremes
// beside it: the median is what the benchmark reports, min and max say how
// much the host moved inside the run.
type spread struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"` // in window order
}

func spreadOf(values []float64) spread {
	if len(values) == 0 {
		return spread{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return spread{Median: medianSorted(s), Min: s[0], Max: s[len(s)-1], Values: values}
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(values []float64) float64 { return spreadOf(values).Median }

// summary is what one measured phase yields, before units are attached.
type summary struct {
	// Window medians, with the per-window min and max.
	ThroughputRPS spread    // outcomeOK responses per second
	P50us, P99us  spread    // class-1 outcomeOK latency
	FullShare     [4]spread // per class: outcomeOK ÷ sent
	// PremiumShare is the share of class-1 requests sent that got a verified
	// full-fidelity answer within the limit. Every class-1 request sent is in
	// the denominator, so a refused or failed one counts as a miss.
	PremiumShare spread

	// Pooled over the whole phase.
	Sent, OK, Refused, Failed int
	Writes                    int
	P999us, MaxUs             float64 // class-1 outcomeOK

	// Split by operation, class-1 outcomeOK, window medians.
	ReadP50us, WriteP50us, WriteP99us float64
}

// summarize folds the windows into window medians and pooled counts. tail
// holds requests that completed after the last whole window; they count
// towards the pooled numbers only.
func summarize(windows []window, tail []sample, limit time.Duration) summary {
	var out summary
	var pooled []uint32
	count := func(sm sample) {
		out.Sent++
		if sm.op == opWrite {
			out.Writes++
		}
		switch sm.outcome {
		case outcomeOK:
			out.OK++
			if sm.class == 1 {
				pooled = append(pooled, sm.lat)
			}
		case outcomeRefused:
			out.Refused++
		case outcomeFailed:
			out.Failed++
		}
	}
	for _, sm := range tail {
		count(sm)
	}

	var tput, p50, p99, readP50, writeP50, writeP99, premiumShare []float64
	var fullShare [4][]float64
	for _, w := range windows {
		var premium, reads, writes []uint32
		var sent, ok [4]int
		within := 0
		for _, sm := range w.samples {
			count(sm)
			sent[sm.class&3]++
			if sm.outcome != outcomeOK {
				continue
			}
			ok[sm.class&3]++
			if sm.class != 1 {
				continue
			}
			if time.Duration(sm.lat) <= limit {
				within++
			}
			premium = append(premium, sm.lat)
			if sm.op == opWrite {
				writes = append(writes, sm.lat)
			} else {
				reads = append(reads, sm.lat)
			}
		}
		slices.Sort(premium)
		slices.Sort(reads)
		slices.Sort(writes)
		tput = append(tput, float64(ok[1]+ok[2]+ok[3])/w.elapsed.Seconds())
		p50 = append(p50, percentile(premium, 0.50)/1e3)
		p99 = append(p99, percentile(premium, 0.99)/1e3)
		for c := 1; c <= 3; c++ {
			if sent[c] > 0 {
				fullShare[c] = append(fullShare[c], float64(ok[c])/float64(sent[c]))
			}
		}
		if sent[1] > 0 {
			premiumShare = append(premiumShare, float64(within)/float64(sent[1]))
		}
		readP50 = append(readP50, percentile(reads, 0.50)/1e3)
		if len(writes) > 0 {
			writeP50 = append(writeP50, percentile(writes, 0.50)/1e3)
			writeP99 = append(writeP99, percentile(writes, 0.99)/1e3)
		}
	}
	out.ThroughputRPS, out.P50us, out.P99us = spreadOf(tput), spreadOf(p50), spreadOf(p99)
	for c := 1; c <= 3; c++ {
		out.FullShare[c] = spreadOf(fullShare[c])
	}
	out.PremiumShare = spreadOf(premiumShare)
	out.ReadP50us, out.WriteP50us, out.WriteP99us = median(readP50), median(writeP50), median(writeP99)
	slices.Sort(pooled)
	out.P999us = percentile(pooled, 0.999) / 1e3
	if n := len(pooled); n > 0 {
		out.MaxUs = float64(pooled[n-1]) / 1e3
	}
	return out
}
