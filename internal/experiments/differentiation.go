package experiments

import (
	"context"
	"fmt"
	"time"

	"servicebroker/internal/apimodel"
	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
	"servicebroker/internal/workload"
)

// DifferentiationConfig parameterizes the service differentiation
// experiment (paper §V-B, Figures 9-10 and Tables I-IV).
//
// Testbed, mirroring Figure 8: three service brokers, each fronting one
// backend web server whose CGI requests have bounded processing times of 1,
// 2, and 3 paper seconds. Each broker's threshold is 20 outstanding
// requests; each backend processes at most 5 simultaneously. WebStone-style
// client populations in three QoS classes issue "normal Web requests" of 3
// stages (one per backend, ≈6 paper seconds total). The same population is
// also run against plain API-based access for the Figure 9 comparison.
type DifferentiationConfig struct {
	// Scale is the wall-clock length of one paper second. The paper's
	// 1/2/3-second stage times and all reported processing times scale by
	// it; queueing and drop behaviour are scale-free.
	Scale time.Duration
	// StageSeconds are the backend bounded processing times in paper
	// seconds (the paper uses 1, 2, 3).
	StageSeconds []float64
	// Threshold is each broker's outstanding-request limit (paper: 20).
	Threshold int
	// MaxClients caps simultaneous backend processing (paper: 5).
	MaxClients int
	// Classes is the number of QoS classes (paper: 3, one per client
	// workstation).
	Classes int
	// ClientCounts is the x axis: total client populations to test.
	ClientCounts []int
	// Duration is how long each population runs, in paper seconds.
	Duration float64
	// ConnectSeconds is the backend connection-setup cost in paper seconds,
	// paid per request by the API model and amortized by brokers.
	ConnectSeconds float64
	// ThinkSeconds is the per-client pause between requests in paper
	// seconds, modelling the network and page-render time that paced the
	// paper's WebStone clients.
	ThinkSeconds float64
	// StaggerSeconds spreads client start times over this many paper
	// seconds so the run does not begin with a thundering herd.
	StaggerSeconds float64
}

// DefaultDifferentiationConfig returns the paper's testbed parameters at a
// given time scale.
func DefaultDifferentiationConfig(scale time.Duration) DifferentiationConfig {
	return DifferentiationConfig{
		Scale:          scale,
		StageSeconds:   []float64{1, 2, 3},
		Threshold:      20,
		MaxClients:     5,
		Classes:        3,
		ClientCounts:   []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Duration:       60,
		ConnectSeconds: 0.1,
		ThinkSeconds:   1,
		StaggerSeconds: 6,
	}
}

// DiffPoint is the measurement at one client count.
type DiffPoint struct {
	Clients int
	// APITime is the mean processing time (paper seconds) of API-based
	// access.
	APITime float64
	// APICompleted counts API requests completed in the run.
	APICompleted int64
	// BrokerTime is the overall broker-mode mean processing time.
	BrokerTime float64
	// ClassTime maps QoS class → mean processing time (paper seconds).
	ClassTime map[qos.Class]float64
	// ClassCompleted maps QoS class → requests that received a response
	// (Table I counts completions from the web server's access logs, so
	// low-fidelity replies count too).
	ClassCompleted map[qos.Class]int64
	// DropRatio maps broker index (0-based) → class → drop ratio at that
	// broker (Tables II-IV).
	DropRatio map[int]map[qos.Class]float64
}

// DiffResult is the full sweep.
type DiffResult struct {
	Config DifferentiationConfig
	Points []DiffPoint
}

// diffStack is one assembled three-broker testbed.
type diffStack struct {
	brokers []*broker.Broker
	apis    []*apimodel.Accessor
	sw      metrics.Stopwatch
}

func newDiffStack(cfg DifferentiationConfig) (*diffStack, error) {
	sw := metrics.Stopwatch{Scale: cfg.Scale}
	s := &diffStack{sw: sw}
	for i, stage := range cfg.StageSeconds {
		conn := &backend.DelayConnector{
			ServiceName:   fmt.Sprintf("backend%d", i+1),
			ProcessTime:   sw.Wall(stage),
			ConnectTime:   sw.Wall(cfg.ConnectSeconds),
			MaxConcurrent: cfg.MaxClients,
		}
		b, err := broker.New(conn,
			broker.WithThreshold(cfg.Threshold, cfg.Classes),
			broker.WithWorkers(cfg.Threshold))
		if err != nil {
			s.close()
			return nil, err
		}
		s.brokers = append(s.brokers, b)

		// The API model accesses an identical, independent backend; the two
		// modes must not share capacity.
		apiConn := &backend.DelayConnector{
			ServiceName:   fmt.Sprintf("api-backend%d", i+1),
			ProcessTime:   sw.Wall(stage),
			ConnectTime:   sw.Wall(cfg.ConnectSeconds),
			MaxConcurrent: cfg.MaxClients,
		}
		a, err := apimodel.New(apiConn)
		if err != nil {
			s.close()
			return nil, err
		}
		s.apis = append(s.apis, a)
	}
	return s, nil
}

func (s *diffStack) close() {
	for _, b := range s.brokers {
		b.Close()
	}
}

// brokerTarget issues one 3-stage request through the brokers with the
// given class. The overall fidelity is the worst stage fidelity.
func (s *diffStack) brokerTarget(class qos.Class) workload.Target {
	return func(ctx context.Context, client, seq int) (qos.Fidelity, error) {
		worst := qos.FidelityFull
		for i, b := range s.brokers {
			resp := b.Handle(ctx, &broker.Request{
				Payload: []byte(fmt.Sprintf("stage%d-c%d-s%d", i+1, client, seq)),
				Class:   class,
				NoCache: true,
			})
			if resp.Err != nil {
				return 0, resp.Err
			}
			if resp.Fidelity > worst {
				worst = resp.Fidelity
			}
		}
		return worst, nil
	}
}

// apiTarget issues one 3-stage request through API-based access.
func (s *diffStack) apiTarget() workload.Target {
	return func(ctx context.Context, client, seq int) (qos.Fidelity, error) {
		for i, a := range s.apis {
			if _, err := a.Do(ctx, []byte(fmt.Sprintf("stage%d-c%d-s%d", i+1, client, seq))); err != nil {
				return 0, err
			}
		}
		return qos.FidelityFull, nil
	}
}

// RunDifferentiation performs the full client-count sweep in both modes.
func RunDifferentiation(ctx context.Context, cfg DifferentiationConfig) (*DiffResult, error) {
	if len(cfg.StageSeconds) == 0 || len(cfg.ClientCounts) == 0 {
		return nil, fmt.Errorf("experiments: empty differentiation config")
	}
	result := &DiffResult{Config: cfg}
	for _, clients := range cfg.ClientCounts {
		point, err := runDiffPoint(ctx, cfg, clients)
		if err != nil {
			return nil, fmt.Errorf("experiments: %d clients: %w", clients, err)
		}
		result.Points = append(result.Points, *point)
	}
	return result, nil
}

// runDiffPoint measures one client count in both modes on fresh stacks.
func runDiffPoint(ctx context.Context, cfg DifferentiationConfig, clients int) (*DiffPoint, error) {
	sw := metrics.Stopwatch{Scale: cfg.Scale}
	point := &DiffPoint{
		Clients:        clients,
		ClassTime:      make(map[qos.Class]float64),
		ClassCompleted: make(map[qos.Class]int64),
		DropRatio:      make(map[int]map[qos.Class]float64),
	}
	perClass := clients / cfg.Classes
	if perClass < 1 {
		perClass = 1
	}

	// Broker mode.
	stack, err := newDiffStack(cfg)
	if err != nil {
		return nil, err
	}
	groups := make([]workload.Group, 0, cfg.Classes)
	for c := 1; c <= cfg.Classes; c++ {
		class := qos.Class(c)
		groups = append(groups, workload.Group{
			Name:      class.String(),
			Class:     class,
			Clients:   perClass,
			Target:    stack.brokerTarget(class),
			ThinkTime: sw.Wall(cfg.ThinkSeconds),
			Stagger:   sw.Wall(cfg.StaggerSeconds),
		})
	}
	results, err := workload.Population{Groups: groups, Duration: sw.Wall(cfg.Duration)}.Run(ctx)
	if err != nil {
		stack.close()
		return nil, err
	}
	var totalTime time.Duration
	var totalCount int64
	for c := 1; c <= cfg.Classes; c++ {
		class := qos.Class(c)
		r := results[class.String()]
		point.ClassTime[class] = sw.PaperSeconds(r.Latency.Mean())
		point.ClassCompleted[class] = r.Latency.Count()
		totalTime += r.Latency.Sum()
		totalCount += r.Latency.Count()
	}
	if totalCount > 0 {
		point.BrokerTime = sw.PaperSeconds(totalTime / time.Duration(totalCount))
	}
	for bi, b := range stack.brokers {
		ratios := make(map[qos.Class]float64, cfg.Classes)
		for c := 1; c <= cfg.Classes; c++ {
			if ratio, ok := b.RefusedRatio(qos.Class(c)); ok {
				ratios[qos.Class(c)] = ratio
			}
		}
		point.DropRatio[bi] = ratios
	}
	stack.close()

	// API mode (fresh stack; modes must not interfere).
	stack, err = newDiffStack(cfg)
	if err != nil {
		return nil, err
	}
	defer stack.close()
	apiResults, err := workload.Population{
		Groups: []workload.Group{{
			Name:      "api",
			Class:     qos.Class1,
			Clients:   perClass * cfg.Classes,
			Target:    stack.apiTarget(),
			ThinkTime: sw.Wall(cfg.ThinkSeconds),
			Stagger:   sw.Wall(cfg.StaggerSeconds),
		}},
		Duration: sw.Wall(cfg.Duration),
	}.Run(ctx)
	if err != nil {
		return nil, err
	}
	api := apiResults["api"]
	point.APITime = sw.PaperSeconds(api.Latency.Mean())
	point.APICompleted = api.Latency.Count()
	return point, nil
}
