package broker

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/qos"
)

// TestRecycledJobsKeepTheirCallers drives many concurrent callers through
// two workers while a random share of them give up with their job queued or
// running. Jobs and their reply channels are recycled, so a job handed back
// too early would deliver one caller's answer to another: every answer that
// arrives must echo its own caller's payload, and every request must end in
// exactly one disposition. The second pass coalesces callers onto four
// payloads: a caller that gives up cancels its flight and the worker settles
// the same ticket again later, by when the flight's slot may hold another
// payload's flight, whose waiters must still get their own answer.
func TestRecycledJobsKeepTheirCallers(t *testing.T) {
	const callers, each = 16, 64
	for _, coalesce := range []bool{false, true} {
		opts := []Option{WithWorkers(2), WithThreshold(callers*each, 3)}
		if coalesce {
			opts = append(opts, WithCoalescing())
		}
		rig := newExitRig(t, &backend.DelayConnector{ServiceName: "db", ProcessTime: 20 * time.Microsecond}, opts...)
		var answered, cancelled atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c)))
				for i := 0; i < each; i++ {
					payload := "caller-" + strconv.Itoa(c) + "-" + strconv.Itoa(i)
					if coalesce {
						payload = "shared-" + strconv.Itoa(rng.Intn(4))
					}
					ctx, cancel := context.WithCancel(context.Background())
					if rng.Intn(3) == 0 {
						// Give up after a random number of scheduler turns: the job
						// may still be queued, running, or already answered.
						go func(turns int) {
							for range turns {
								runtime.Gosched()
							}
							cancel()
						}(rng.Intn(20))
					}
					resp := rig.b.Handle(ctx, &Request{Payload: []byte(payload), Class: qos.Class(1 + rng.Intn(3)), NoCache: !coalesce})
					cancel()
					switch {
					case resp.Status == StatusOK:
						if got := string(resp.Payload); got != "done:"+payload {
							t.Errorf("caller %q got %q", payload, got)
						}
						answered.Add(1)
					case errors.Is(resp.Err, context.Canceled):
						cancelled.Add(1)
					default:
						t.Errorf("caller %q: resp = %+v", payload, resp)
					}
				}
			}(c)
		}
		wg.Wait()
		if answered.Load() == 0 || cancelled.Load() == 0 {
			t.Fatalf("coalesce %v: answered %d, cancelled %d: the schedule exercised only one side", coalesce, answered.Load(), cancelled.Load())
		}

		// A caller that gave up leaves its job to the worker, which finishes it
		// later; wait for all of them, then audit the dispositions against the
		// traces' own count of them.
		rig.waitFor("every request to finish", func() bool {
			return rig.finished("_ok")+rig.finished("_error") >= callers*each
		})
		want := map[string]int64{"ok": rig.finished("_ok"), "error": rig.finished("_error")}
		if want["ok"] < answered.Load() {
			t.Errorf("coalesce %v: %d requests finished ok, but %d callers received an answer", coalesce, want["ok"], answered.Load())
		}
		rig.audit(want)
	}
}
