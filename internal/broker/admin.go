package broker

import (
	"fmt"
	"io"

	"servicebroker/internal/metrics"
	"servicebroker/internal/txn"
)

// Row renders the report as one /loadz row, without a newline.
func (r LoadReport) Row() string {
	return fmt.Sprintf("service=%s outstanding=%d threshold=%d queue=%d hot=%v",
		r.Service, r.Outstanding, r.Threshold, r.QueueLen, r.Hot)
}

// WriteRow renders the coalescing accounting as one /hotz row for a service:
// next to the hot-key skew that makes duplicate in-flight queries likely, how
// many of them single-flight coalescing actually folded.
func (st CoalesceStats) WriteRow(w io.Writer, service string) {
	saved := 0.0
	if total := st.Flights + st.Coalesced; total > 0 {
		saved = float64(st.Coalesced) / float64(total)
	}
	fmt.Fprintf(w, "service=%s coalesce: flights=%d coalesced=%d shared=%d inflight=%d backend_trips_saved=%.1f%%\n",
		service, st.Flights, st.Coalesced, st.Shared, st.Inflight, 100*saved)
}

// AdminPages returns a row renderer for every admin page this broker has
// something to say on, keyed by page path: /loadz and /breakerz always,
// /hotz and /txnz when the feature behind them was configured.
// Rows are labelled with service (brokerd's -service name, which need not be
// the connector's). limit is the page's ?n= parameter; only /hotz ranks rows.
//
// Rendering /txnz snapshots the tracker, which runs the transaction
// abandonment sweep — scraping keeps an idle broker honest.
func (b *Broker) AdminPages(service string) map[string]func(w io.Writer, limit int) {
	pages := map[string]func(io.Writer, int){
		"/loadz": func(w io.Writer, _ int) { fmt.Fprintln(w, b.Load().Row()) },
		"/breakerz": func(w io.Writer, _ int) {
			snaps := b.BreakerSnapshots()
			if snaps == nil {
				fmt.Fprintf(w, "service=%s breakers disabled\n", service)
			}
			for _, sn := range snaps {
				sn.WriteRow(w, service)
			}
		},
	}
	if b.flights != nil || b.hotkeys != nil {
		pages["/hotz"] = func(w io.Writer, limit int) {
			if st, ok := b.CoalesceStats(); ok {
				st.WriteRow(w, service)
			}
			if snap, ok := b.HotKeySnapshot(); ok {
				snap.WriteRows(w, service, limit)
			}
		}
	}
	if b.tracker != nil {
		pages["/txnz"] = func(w io.Writer, _ int) {
			var idem *txn.IdemStats
			if st, ok := b.IdemStats(); ok {
				idem = &st
			}
			b.tracker.Snapshot().WriteRows(w, service, idem)
		}
	}
	return pages
}

// ScrapeView returns the broker's values that are read off its subsystems
// rather than kept in its registry, computed once per /metrics scrape so they
// are current with no other reader polling: the result cache's per-shard
// counters (cache_shard<N>_{hits,misses,evictions,expired,stale_hits}) and
// gauges (cache_shard<N>_{entries,bytes}), which make key-space skew across
// the cache's lock domains visible; with WithHotKeys the hotkey_tracked,
// hotkey_skew_x100, hotkey_memory_bytes and hotkey_top10_share_x100 gauges;
// with WithCoalescing the coalesce_inflight gauge. Empty when the broker has
// none of the three.
func (b *Broker) ScrapeView() metrics.View {
	v := metrics.View{Counters: make(map[string]int64), Gauges: make(map[string]int64)}
	if b.results != nil {
		for _, st := range b.results.ShardStats() {
			p := fmt.Sprintf("cache_shard%d_", st.Shard)
			v.Counters[p+"hits"] = st.Hits
			v.Counters[p+"misses"] = st.Misses
			v.Counters[p+"evictions"] = st.Evictions
			v.Counters[p+"expired"] = st.Expired
			v.Counters[p+"stale_hits"] = st.StaleHits
			v.Gauges[p+"entries"] = int64(st.Entries)
			v.Gauges[p+"bytes"] = st.Bytes
		}
	}
	if snap, ok := b.HotKeySnapshot(); ok {
		v.Gauges["hotkey_tracked"] = int64(len(snap.Keys))
		v.Gauges["hotkey_skew_x100"] = int64(snap.Skew * 100)
		v.Gauges["hotkey_memory_bytes"] = int64(snap.MemoryBytes)
		v.Gauges["hotkey_top10_share_x100"] = int64(snap.TopShare(10) * 100)
	}
	if st, ok := b.CoalesceStats(); ok {
		v.Gauges["coalesce_inflight"] = int64(st.Inflight)
	}
	return v
}
