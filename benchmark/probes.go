package main

import (
	"strconv"
	"time"

	"servicebroker/internal/cache"
	"servicebroker/internal/qos"
	"servicebroker/internal/txn"
)

// calibSink keeps the calibration kernel's result alive.
var calibSink uint64

// calibrate times a fixed pure-CPU kernel (no memory traffic, no syscalls)
// and returns the median of five runs in ns. Read before and after a
// workload, it says whether the host changed speed under the run.
func calibrate() float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		runs = append(runs, float64(time.Since(start)))
	}
	return median(runs)
}

// perOp times n calls of op and returns ns per call.
func perOp(n int, op func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// probes times single operations of the layers too small to see in the peel,
// at fixed counts, through their public functions.
func probes(pl map[string]metric) {
	keys := make([]string, 2*cacheEntries)
	for i := range keys {
		keys[i] = pointRead(i)
	}
	value := []byte(pointHeader + "17\trecord-000017\n")

	c := cache.New(cacheEntries)
	for _, k := range keys[:hotKeys] {
		c.Put(k, value)
	}
	pl["cache.get_hit_ns"] = plain(perOp(1_000_000, func(i int) { c.Get(keys[i%hotKeys]) }), "ns")
	// Twice the capacity in distinct keys, so every put past the first lap evicts.
	pl["cache.put_ns"] = plain(perOp(1_000_000, func(i int) { c.Put(keys[i%len(keys)], value) }), "ns")

	q := qos.NewQueue[int](64)
	pl["qos.push_pop_ns"] = plain(perOp(1_000_000, func(i int) {
		_ = q.Push(qos.Class(1+i%3), i) // capacity 64 and one item queued: cannot be full
		q.TryPop()
	}), "ns")

	// A full table, so each acquire also evicts: the steady state of a
	// broker that has seen more writes than the table holds.
	table := txn.NewIdemTable(cacheEntries, 0)
	record := func(i int) {
		if _, hit, tk := table.Acquire(txn.IdemKey("t"+strconv.Itoa(i), 1, "k")); !hit {
			tk.Complete(txn.Outcome{Status: 1, Payload: value})
		}
	}
	for i := 0; i < cacheEntries; i++ {
		record(i)
	}
	pl["txn.idem_ns"] = plain(perOp(10_000, func(i int) { record(cacheEntries + i) }), "ns")
}
