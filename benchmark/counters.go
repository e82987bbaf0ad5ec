package main

import "runtime"

// counters is a point-in-time reading of the counts the layers and the
// runtime keep; the measured phase is the difference of two readings.
type counters struct {
	mallocs, allocBytes    uint64
	gcCycles               uint32
	gcPauseNs              uint64
	cacheHits, cacheMisses int64
	queries                int64 // statements the sqldb server executed
	coalesced              int64 // requests answered from another's backend trip
}

func takeCounters(r *rig) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs,
		queries: r.db.Metrics().Counter("queries").Value(),
	}
	cs := r.broker.CacheStats()
	c.cacheHits, c.cacheMisses = cs.Hits, cs.Misses
	if co, ok := r.broker.CoalesceStats(); ok {
		c.coalesced = co.Coalesced
	}
	return c
}

func (c counters) sub(b counters) counters {
	return counters{
		mallocs: c.mallocs - b.mallocs, allocBytes: c.allocBytes - b.allocBytes,
		gcCycles: c.gcCycles - b.gcCycles, gcPauseNs: c.gcPauseNs - b.gcPauseNs,
		cacheHits: c.cacheHits - b.cacheHits, cacheMisses: c.cacheMisses - b.cacheMisses,
		queries: c.queries - b.queries, coalesced: c.coalesced - b.coalesced,
	}
}
