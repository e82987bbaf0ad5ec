package servicebroker

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/obs"
	"servicebroker/internal/qos"
	"servicebroker/internal/sketch"
	"servicebroker/internal/slo"
)

// TestSLOAlertFlipsUnderClassOverload floods one QoS class through a broker
// with a single slow worker, then scrapes the obs /sloz page: the overloaded
// class must have paged with queue-stage attribution dominating its latency
// budget loss, while the lightly loaded high-priority class stays ok. The
// /hotz page must attribute the flood to its key.
func TestSLOAlertFlipsUnderClassOverload(t *testing.T) {
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

	var logBuf bytes.Buffer
	b, err := broker.New(fc,
		broker.WithThreshold(128, 3),
		broker.WithWorkers(1),
		broker.WithHotKeys(sketch.Config{TopK: 8}),
		broker.WithSLO(slo.Config{
			Objectives: []slo.Objective{
				// Class 1 has a generous target the light traffic meets.
				{Class: qos.Class1, LatencyTarget: 5 * time.Second, LatencyGoal: 0.9, AvailabilityGoal: 0.5},
				// Class 3's 1ms target is unmeetable once its requests queue
				// behind each other on the single worker.
				{Class: qos.Class3, LatencyTarget: time.Millisecond, LatencyGoal: 0.9, AvailabilityGoal: 0.5},
			},
			FastWindow: time.Second,
			SlowWindow: 4 * time.Second,
			Resolution: 100 * time.Millisecond,
			WarnBurn:   1.5,
			PageBurn:   3,
			Logger:     slog.New(slog.NewTextHandler(&logBuf, nil)),
		}))
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
	adminSrv.MountRegistry("broker.db.", b.Metrics())
	for page, render := range b.AdminPages("db") {
		adminSrv.AddRows(page, "db", render)
	}
	if err := adminSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer adminSrv.Close()
	base := "http://" + adminSrv.Addr().String()

	sloz := httpGet(t, base+"/sloz")
	if !strings.Contains(sloz, "class=1 state=ok") {
		t.Fatalf("/sloz: healthy class 1 not ok:\n%s", sloz)
	}
	if !strings.Contains(sloz, "class=3 state=page") {
		t.Fatalf("/sloz: overloaded class 3 did not page:\n%s", sloz)
	}

	// Queue time must dominate class 3's stage attribution: its first
	// (largest) stage line after the class header must be the queue stage.
	classIdx := strings.Index(sloz, "class=3")
	stageIdx := strings.Index(sloz[classIdx:], "stage=")
	if stageIdx < 0 {
		t.Fatalf("/sloz: class 3 has no stage attribution:\n%s", sloz)
	}
	topStage := sloz[classIdx+stageIdx:]
	if !strings.HasPrefix(topStage, "stage=queue") {
		t.Fatalf("/sloz: class 3's dominant stage is not queue:\n%s", sloz)
	}

	// The state machine logged the ok → page transition.
	if log := logBuf.String(); !strings.Contains(log, "slo state change") || !strings.Contains(log, "to=page") {
		t.Fatalf("transition log missing page transition:\n%s", log)
	}

	// The flood key leads /hotz.
	hotz := httpGet(t, base+"/hotz")
	first := strings.Index(hotz, "key=")
	if first < 0 || !strings.HasPrefix(hotz[first:], `key="flood-key"`) {
		t.Fatalf("/hotz: flood-key not the top key:\n%s", hotz)
	}

	// The burn-rate gauges landed in the broker registry for /metrics + tsdb.
	metricsPage := httpGet(t, base+"/metrics")
	if !strings.Contains(metricsPage, "broker_db_slo_state_class_3") {
		t.Fatalf("/metrics missing slo state gauge:\n%s", metricsPage)
	}
}
