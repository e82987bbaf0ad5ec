package obs

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"servicebroker/internal/fleet"
)

// SetEventLog wires the fleet event timeline backing /eventz.
func (s *Server) SetEventLog(l *fleet.Log) {
	s.mu.Lock()
	s.events = l
	s.mu.Unlock()
}

// SetFederator wires the fleet federator backing /fleetz and the federated
// section of /metrics.
func (s *Server) SetFederator(f *fleet.Federator) {
	s.mu.Lock()
	s.federator = f
	s.mu.Unlock()
}

// SetDraining flips the /healthz answer between "ok" and "draining": a
// daemon calls SetDraining(true) when it starts its graceful shutdown so a
// fleet scraper (or load balancer) can tell an intentional drain from a
// crash. A draining daemon answers 503 with a Retry-After hint.
func (s *Server) SetDraining(v bool) {
	s.mu.Lock()
	s.draining = v
	s.mu.Unlock()
}

// --- /eventz ----------------------------------------------------------------

func (s *Server) handleEventz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	log := s.events
	s.mu.Unlock()
	if log == nil {
		http.Error(w, "eventz: no event log configured", http.StatusNotFound)
		return
	}
	limit := 100
	if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v > 0 {
		limit = v
	}
	events := log.Snapshot(limit)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%d events (newest first)\n", len(events))
	for _, e := range events {
		fmt.Fprintf(w, "seq=%d at=%s kind=%s", e.Seq, e.At.Format(time.RFC3339Nano), e.Kind)
		if e.Service != "" {
			fmt.Fprintf(w, " service=%s", e.Service)
		}
		if e.Member != "" {
			fmt.Fprintf(w, " member=%s", e.Member)
		}
		if e.Detail != "" {
			fmt.Fprintf(w, " detail=%q", e.Detail)
		}
		if e.TraceID != 0 {
			// The hex form /tracez prints, so the event links straight to
			// the stitched trace of the request that triggered it.
			fmt.Fprintf(w, " trace=%016x", e.TraceID)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "ring: held=%d dropped=%d\n", log.Len(), log.Dropped())
}

// --- /fleetz ----------------------------------------------------------------

func (s *Server) handleFleetz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	fed := s.federator
	s.mu.Unlock()
	if fed == nil {
		http.Error(w, "fleetz: no federator configured", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	members := fed.Members()
	fmt.Fprintf(w, "fleet: %d members\n", len(members))
	now := time.Now()
	for _, m := range members {
		state := "live"
		if m.Stale {
			state = "stale"
		}
		fmt.Fprintf(w, "member=%s admin=%s state=%s series=%d", m.Name, m.AdminAddr, state, m.Series)
		if m.LastGood.IsZero() {
			fmt.Fprint(w, " last_scrape=never")
		} else {
			fmt.Fprintf(w, " last_scrape=%s ago", now.Sub(m.LastGood).Round(time.Millisecond))
		}
		if m.Build != "" {
			fmt.Fprintf(w, " build=%q", m.Build)
		}
		if m.LastError != "" {
			fmt.Fprintf(w, " last_error=%q", m.LastError)
		}
		fmt.Fprintln(w)
	}
	// Lease state, utilization, and breaker health are the /poolz rows: one
	// page with the whole topology.
	for _, src := range s.sources("/poolz") {
		src.render(w, 0)
	}
}
