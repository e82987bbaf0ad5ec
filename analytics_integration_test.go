package servicebroker

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/metrics"
	"servicebroker/internal/obs"
	"servicebroker/internal/qos"
	"servicebroker/internal/sketch"
	"servicebroker/internal/trace"
)

// TestQueueStageDominatesUnderClassOverload floods one QoS class through a
// broker with a single slow worker, then scrapes the admin plane as brokerd
// wires it. On /metrics the trace recorder's per-class stage histograms must
// show the overloaded class losing its time in the queue stage, while the
// lightly loaded high-priority class waits far less there. The /hotz page
// must attribute the flood to its key.
func TestQueueStageDominatesUnderClassOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}

	fc := &backend.FuncConnector{
		ServiceName: "db",
		DoFn: func(ctx context.Context, p []byte) ([]byte, error) {
			time.Sleep(10 * time.Millisecond)
			return append([]byte("v:"), p...), nil
		},
	}

	traceReg := metrics.NewRegistry()
	b, err := broker.New(fc,
		broker.WithThreshold(128, 3),
		broker.WithWorkers(1),
		broker.WithHotKeys(sketch.Config{TopK: 8}),
		broker.WithTracer(trace.NewRecorder(trace.WithMetrics(traceReg))))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Flood class 3 with 30 concurrent requests for one hot key; every one
	// completes OK but waits in the queue far past the 1ms target. Class 1
	// sends a trickle that jumps the QoS queue.
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := b.Handle(context.Background(), &broker.Request{
				Payload: []byte("flood-key"), Class: qos.Class3, NoCache: true,
			})
			if resp.Status != broker.StatusOK {
				t.Errorf("class-3 resp = %+v", resp)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := b.Handle(context.Background(), &broker.Request{
				Payload: []byte("light-key"), Class: qos.Class1, NoCache: true,
			})
			if resp.Status != broker.StatusOK {
				t.Errorf("class-1 resp = %+v", resp)
			}
		}()
	}
	wg.Wait()

	// Admin plane exactly as cmd/brokerd wires it.
	adminSrv := obs.New()
	adminSrv.MountRegistry("", traceReg)
	adminSrv.MountRegistry("broker.db.", b.Metrics())
	for page, render := range b.AdminPages("db") {
		adminSrv.AddRows(page, "db", render)
	}
	if err := adminSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer adminSrv.Close()
	base := "http://" + adminSrv.Addr().String()

	// Queue time must dominate class 3's stage histograms: its queue sum
	// exceeds every other stage's. Class 1 jumps the queue, so its mean
	// queue wait stays below class 3's.
	metricsPage := httpGet(t, base+"/metrics")
	stageSums := promSamples(metricsPage, "trace_db_", "_class_3_sum")
	queue3, ok := stageSums["queue"]
	if !ok || queue3 <= 0 {
		t.Fatalf("/metrics: no class-3 queue time in %v:\n%s", stageSums, metricsPage)
	}
	for stage, sum := range stageSums {
		if stage != "queue" && sum >= queue3 {
			t.Errorf("/metrics: class 3 spent %.3fs in %s, not below its %.3fs queued", sum, stage, queue3)
		}
	}
	mean := func(class string) float64 {
		sum := promSamples(metricsPage, "trace_db_queue_class_"+class, "_sum")[""]
		count := promSamples(metricsPage, "trace_db_queue_class_"+class, "_count")[""]
		if count == 0 {
			t.Fatalf("/metrics: no class-%s queue observations:\n%s", class, metricsPage)
		}
		return sum / count
	}
	if m1, m3 := mean("1"), mean("3"); m1 >= m3 {
		t.Errorf("class 1 mean queue wait %.4fs, not below class 3's %.4fs", m1, m3)
	}

	// The flood key leads /hotz.
	hotz := httpGet(t, base+"/hotz")
	first := strings.Index(hotz, "key=")
	if first < 0 || !strings.HasPrefix(hotz[first:], `key="flood-key"`) {
		t.Fatalf("/hotz: flood-key not the top key:\n%s", hotz)
	}
}

// promSamples returns the value of every unlabelled sample on an exposition
// page whose name is prefix + x + suffix, keyed by x.
func promSamples(page, prefix, suffix string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(page, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil || len(name) < len(prefix)+len(suffix) {
			continue
		}
		out[name[len(prefix):len(name)-len(suffix)]] = v
	}
	return out
}
