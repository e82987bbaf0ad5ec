package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/qos"
	"servicebroker/internal/txn"
)

// TxnIntegrityConfig parameterizes the transaction-integrity ablation: the
// paper's three-step supply-chain purchase runs against a congested vendor
// broker twice — once with flat classes and no duplicate suppression
// (baseline), once with step escalation, saga compensation, and an
// idempotency table (integrity) — and a separate duplicate-delivery section
// measures exactly-once execution against the effect store's mutation
// counter.
type TxnIntegrityConfig struct {
	// Purchases is the number of three-step transactions per mode.
	Purchases int
	// VendorProcess and VendorSlots shape the congested monitor vendor.
	VendorProcess time.Duration
	VendorSlots   int
	// Threshold/Classes/Workers size the vendor broker.
	Threshold int
	Classes   int
	Workers   int
	// BackgroundEvery paces the class-2 browsing flood that congests the
	// vendor; Warmup lets congestion build before measuring.
	BackgroundEvery time.Duration
	Warmup          time.Duration
	// DuplicateMutations is the number of mutating accesses in the
	// duplicate-delivery section; each is delivered twice.
	DuplicateMutations int
}

// DefaultTxnIntegrityConfig returns the ablation defaults; quick shrinks the
// sweep for CI.
func DefaultTxnIntegrityConfig(quick bool) TxnIntegrityConfig {
	cfg := TxnIntegrityConfig{
		Purchases:          60,
		VendorProcess:      15 * time.Millisecond,
		VendorSlots:        2,
		Threshold:          6,
		Classes:            3,
		Workers:            2,
		BackgroundEvery:    2 * time.Millisecond,
		Warmup:             20 * time.Millisecond,
		DuplicateMutations: 200,
	}
	if quick {
		cfg.Purchases = 20
		cfg.DuplicateMutations = 50
	}
	return cfg
}

// TxnIntegrityMode is one measured configuration of the ablation.
type TxnIntegrityMode struct {
	Name      string `json:"name"`
	Purchases int    `json:"purchases"`
	// Abort accounting. EarlyAborts lost no committed work (step 1 shed);
	// LateAborts threw away a transaction that had already completed at
	// least one step — the number escalation exists to shrink.
	EarlyAborts int64 `json:"early_aborts"`
	LateAborts  int64 `json:"late_aborts"`
	Completed   int64 `json:"completed"`
	// LateAbortRate is LateAborts over transactions that reached step 2.
	LateAbortRate float64 `json:"late_abort_rate"`
	// Saga accounting: compensations run on abort, and holds left orphaned
	// at the vendor once every transaction has finished. The baseline has no
	// compensation machinery, so its aborted transactions leak holds.
	CompensationsRun int64 `json:"compensations_run"`
	OrphanedHolds    int64 `json:"orphaned_holds"`
	// Duplicate-delivery section: every mutation is delivered twice;
	// BackendMutations counts executions the effect store actually saw.
	DuplicatesDelivered  int64 `json:"duplicates_delivered"`
	LogicalMutations     int64 `json:"logical_mutations"`
	BackendMutations     int64 `json:"backend_mutations"`
	DuplicatesSuppressed int64 `json:"duplicates_suppressed"`
}

// TxnIntegrityResult is the full ablation output (the "txn" entry of
// BENCH_experiments.json).
type TxnIntegrityResult struct {
	Purchases int              `json:"purchases"`
	Baseline  TxnIntegrityMode `json:"baseline"`
	Integrity TxnIntegrityMode `json:"integrity"`
}

// runTxnIntegrityMode drives cfg.Purchases three-step purchases through a
// congested vendor broker and an uncongested supply broker. Steps 1 and 3
// access the vendor (browse, then purchase); step 2 places a HOLD at the
// supply store. With integrity on, the brokers share a transaction tracker
// (so step 3 runs escalated), the HOLD registers a RELEASE compensation, and
// aborts compensate; the baseline aborts leave their holds orphaned.
func runTxnIntegrityMode(ctx context.Context, cfg TxnIntegrityConfig, integrity bool) (TxnIntegrityMode, error) {
	name := "baseline"
	if integrity {
		name = "integrity"
	}
	mode := TxnIntegrityMode{Name: name, Purchases: cfg.Purchases}

	vendorConn := &backend.DelayConnector{
		ServiceName:   "vendor",
		ProcessTime:   cfg.VendorProcess,
		MaxConcurrent: cfg.VendorSlots,
	}
	supplyConn := &backend.EffectConnector{}

	vendorOpts := []broker.Option{
		broker.WithThreshold(cfg.Threshold, cfg.Classes),
		broker.WithWorkers(cfg.Workers),
	}
	supplyOpts := []broker.Option{broker.WithThreshold(64, cfg.Classes)}
	var tracker *txn.Tracker
	if integrity {
		tracker = txn.NewTracker()
		vendorOpts = append(vendorOpts, broker.WithSharedTransactions(tracker))
		supplyOpts = append(supplyOpts,
			broker.WithSharedTransactions(tracker),
			broker.WithIdempotency(4096, time.Minute))
	}
	vendor, err := broker.New(vendorConn, vendorOpts...)
	if err != nil {
		return mode, err
	}
	defer vendor.Close()
	supply, err := broker.New(supplyConn, supplyOpts...)
	if err != nil {
		return mode, err
	}
	defer supply.Close()

	// Background class-2 browsing congests the vendor.
	var bg sync.WaitGroup
	stop := make(chan struct{})
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			bg.Add(1)
			go func(i int) {
				defer bg.Done()
				vendor.Handle(ctx, &broker.Request{
					Payload: []byte(fmt.Sprintf("browse-%d", i)), Class: qos.Class2, NoCache: true,
				})
			}(i)
			time.Sleep(cfg.BackgroundEvery)
		}
	}()
	defer func() {
		close(stop)
		bg.Wait()
	}()
	time.Sleep(cfg.Warmup)

	release := func(sku string) func(context.Context) error {
		return func(ctx context.Context) error {
			s, err := supplyConn.Connect(ctx)
			if err != nil {
				return err
			}
			defer s.Close()
			_, err = s.Do(ctx, []byte("RELEASE "+sku+" 1"))
			return err
		}
	}

	var reached2 int64
	for i := 0; i < cfg.Purchases; i++ {
		txnID := fmt.Sprintf("purchase-%d", i)
		sku := fmt.Sprintf("sku-%d", i)
		// Steps 1 and 2 run against the uncongested supply service — the
		// paper's scenario congests the channel back to the monitor vendor
		// *during step 3*, after the transaction has already done work.
		step1 := supply.Handle(ctx, &broker.Request{
			Payload: []byte("GET " + sku), Class: qos.Class3,
			TxnID: txnID, TxnStep: 1, NoCache: true,
		})
		if step1.Status == broker.StatusError {
			return mode, step1.Err
		}
		if step1.Status != broker.StatusOK {
			mode.EarlyAborts++
			if tracker != nil {
				_ = tracker.Abort(txnID)
			}
			continue
		}
		reached2++
		step2 := supply.Handle(ctx, &broker.Request{
			Payload: []byte("HOLD " + sku + " 1"), Class: qos.Class3,
			TxnID: txnID, TxnStep: 2, IdemKey: "hold", NoCache: true,
		})
		if step2.Status != broker.StatusOK {
			mode.LateAborts++
			if tracker != nil {
				_ = tracker.Abort(txnID)
			}
			continue
		}
		if tracker != nil {
			if err := tracker.RegisterCompensation(txnID, 2, "release-hold", release(sku)); err != nil {
				return mode, err
			}
		}
		// Step 3 goes back through the congested vendor channel to match the
		// held models — the access the paper protects. Dropped here, the
		// whole transaction aborts with work already done.
		step3 := vendor.Handle(ctx, &broker.Request{
			Payload: []byte("MATCH " + sku), Class: qos.Class3,
			TxnID: txnID, TxnStep: 3, NoCache: true,
		})
		switch step3.Status {
		case broker.StatusError:
			return mode, step3.Err
		case broker.StatusOK:
			// The match survived; commit converts the hold into a purchase.
			commit := supply.Handle(ctx, &broker.Request{
				Payload: []byte("PURCHASE " + sku + " 1"), Class: qos.Class3,
				TxnID: txnID, TxnStep: 3, IdemKey: "commit", NoCache: true,
			})
			if commit.Status == broker.StatusError {
				return mode, commit.Err
			}
			if commit.Status != broker.StatusOK {
				mode.LateAborts++
				if tracker != nil {
					_ = tracker.Abort(txnID)
				}
				continue
			}
			mode.Completed++
			if tracker != nil {
				_ = tracker.Complete(txnID)
			}
		default:
			mode.LateAborts++
			if tracker != nil {
				// Abort runs the registered RELEASE in reverse order; the
				// baseline has no saga layer, so its hold stays orphaned.
				_ = tracker.Abort(txnID)
			}
		}
	}
	if reached2 > 0 {
		mode.LateAbortRate = float64(mode.LateAborts) / float64(reached2)
	}
	if tracker != nil {
		snap := tracker.Snapshot()
		mode.CompensationsRun = int64(snap.CompensationsRun)
	}
	mode.OrphanedHolds = int64(supplyConn.TotalHolds())

	// Duplicate-delivery section: a fresh effect store takes
	// cfg.DuplicateMutations holds, each delivered twice (the failover /
	// retransmit case). Exactly-once means the store's mutation counter
	// equals the logical count.
	dupConn := &backend.EffectConnector{}
	dupOpts := []broker.Option{broker.WithThreshold(64, cfg.Classes)}
	if integrity {
		dupOpts = append(dupOpts,
			broker.WithTransactions(),
			broker.WithIdempotency(4096, time.Minute))
	}
	dup, err := broker.New(dupConn, dupOpts...)
	if err != nil {
		return mode, err
	}
	defer dup.Close()
	for i := 0; i < cfg.DuplicateMutations; i++ {
		req := func() *broker.Request {
			return &broker.Request{
				Payload: []byte(fmt.Sprintf("HOLD dup-%d 1", i)), Class: qos.Class2,
				TxnID: fmt.Sprintf("dup-%d", i), TxnStep: 2, IdemKey: "hold", NoCache: true,
			}
		}
		for attempt := 0; attempt < 2; attempt++ {
			mode.DuplicatesDelivered++
			if resp := dup.Handle(ctx, req()); resp.Status == broker.StatusError {
				return mode, resp.Err
			}
		}
		mode.LogicalMutations++
	}
	mode.BackendMutations = dupConn.Mutations()
	mode.DuplicatesSuppressed = mode.DuplicatesDelivered - mode.BackendMutations
	return mode, nil
}

// RunTxnIntegrity runs the transaction-integrity ablation: the same
// congested three-step purchase workload with and without the integrity
// machinery, plus the duplicate-delivery section. The
// integrity mode must show a lower late-abort rate (escalated step 3 outranks
// the browsing flood), zero orphaned holds (compensations ran), and
// exactly-once mutations under duplicate delivery.
func RunTxnIntegrity(ctx context.Context, cfg TxnIntegrityConfig) (*TxnIntegrityResult, error) {
	if cfg.Purchases < 1 || cfg.DuplicateMutations < 1 {
		return nil, fmt.Errorf("experiments: txn integrity config needs purchases and duplicate mutations")
	}
	baseline, err := runTxnIntegrityMode(ctx, cfg, false)
	if err != nil {
		return nil, err
	}
	integrity, err := runTxnIntegrityMode(ctx, cfg, true)
	if err != nil {
		return nil, err
	}
	return &TxnIntegrityResult{
		Purchases: cfg.Purchases,
		Baseline:  baseline,
		Integrity: integrity,
	}, nil
}
