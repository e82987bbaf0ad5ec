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

// SetDraining flips the /healthz answer between "ok" and "draining": a
// daemon calls SetDraining(true) when it starts its graceful shutdown so a
// health probe (or load balancer) can tell an intentional drain from a
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
