// Supplychain: the paper's transaction-integrity scenario (§III). "A
// computer manufacturer conducts an online purchase from multiple vendors:
// it first selects proper monitor models from a monitor vendor site (step
// 1), then video cards from the other vendors (step 2), then comes back to
// the monitor vendor again to match and purchase the best models (step 3).
// If somehow during step 3 the channel to the monitor vendor site is
// congested, the transaction could abort." This demo shows the three
// integrity mechanisms working together (DESIGN.md §14):
//
//  1. Step escalation — brokers sharing a transaction tracker escalate
//     later steps' priority, so nearly complete transactions outrank fresh
//     low-priority traffic and survive overload.
//
//  2. Saga compensation — each step that leaves an effect behind registers
//     a compensation; an aborted transaction runs them in reverse order, so
//     no inventory hold is orphaned.
//
//  3. Idempotent retries — mutating steps carry an idempotency key; a
//     duplicate delivery (client retry, failover) replays the recorded
//     first outcome instead of executing the effect twice.
//
//     go run ./examples/supplychain
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"servicebroker/internal/backend"
	"servicebroker/internal/broker"
	"servicebroker/internal/qos"
	"servicebroker/internal/txn"
)

const purchases = 20

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	flat, err := runPurchases(false)
	if err != nil {
		return err
	}
	saga, err := runPurchases(true)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Printf("%d purchase transactions against a congested monitor vendor:\n", purchases)
	fmt.Printf("  without integrity: %d aborted, %d inventory holds orphaned, %d duplicate effects\n",
		flat.aborted, flat.orphaned, flat.duplicates)
	fmt.Printf("  with integrity:    %d aborted, %d inventory holds orphaned, %d duplicate effects\n",
		saga.aborted, saga.orphaned, saga.duplicates)
	fmt.Println("\nlater transaction steps outrank fresh low-priority traffic, aborted")
	fmt.Println("transactions compensate their holds in reverse order, and retried")
	fmt.Println("mutations replay their recorded outcome instead of re-executing.")
	return nil
}

type outcome struct {
	aborted    int
	orphaned   int
	duplicates int64
}

// runPurchases drives the three-step purchase flow while background traffic
// congests the monitor vendor. With integrity on, the vendor and warehouse
// brokers share a transaction tracker, holds register compensations, and the
// commit is retried through the idempotency table.
func runPurchases(integrity bool) (out outcome, err error) {
	// The monitor vendor: a slow, capacity-limited backend.
	monitorVendor := &backend.DelayConnector{
		ServiceName:   "monitor-vendor",
		ProcessTime:   15 * time.Millisecond,
		MaxConcurrent: 2,
	}
	// The warehouse holds inventory and counts every executed effect.
	warehouse := &backend.EffectConnector{ServiceName: "warehouse"}

	opts := []broker.Option{broker.WithThreshold(6, 3), broker.WithWorkers(2)}
	whOpts := []broker.Option{broker.WithThreshold(16, 3)}
	var tracker *txn.Tracker
	if integrity {
		// Brokers for the two services share one transaction tracker, so a
		// step observed at the warehouse escalates later accesses at the
		// monitor vendor (the paper's broker-to-broker state exchange), and
		// the warehouse broker suppresses duplicate effects.
		tracker = txn.NewTracker()
		opts = append(opts, broker.WithTransactions(tracker))
		whOpts = append(whOpts,
			broker.WithTransactions(tracker),
			broker.WithIdempotency(1024, time.Minute))
	}
	monitors, err := broker.New(monitorVendor, opts...)
	if err != nil {
		return out, err
	}
	defer monitors.Close()
	wh, err := broker.New(warehouse, whOpts...)
	if err != nil {
		return out, err
	}
	defer wh.Close()

	ctx := context.Background()

	// Background browsing traffic congests the monitor vendor.
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
				monitors.Handle(ctx, &broker.Request{
					Payload: []byte(fmt.Sprintf("browse-%d", i)),
					Class:   qos.Class2,
					NoCache: true,
				})
			}(i)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		bg.Wait()
	}()
	time.Sleep(20 * time.Millisecond) // let congestion build

	release := func(sku string) func(context.Context) error {
		return func(ctx context.Context) error {
			s, err := warehouse.Connect(ctx)
			if err != nil {
				return err
			}
			defer s.Close()
			_, err = s.Do(ctx, []byte("RELEASE "+sku+" 1"))
			return err
		}
	}

	var logicalMutations int64
	for i := 0; i < purchases; i++ {
		txnID := fmt.Sprintf("purchase-%d", i)
		sku := fmt.Sprintf("monitor-%d", i)
		// Step 1: browse monitors (read-only; a drop costs nothing).
		step1 := wh.Handle(ctx, &broker.Request{
			Payload: []byte("GET " + sku), Class: qos.Class3,
			TxnID: txnID, TxnStep: 1, NoCache: true,
		})
		if step1.Status == broker.StatusError {
			return out, step1.Err
		}
		// Step 2: hold the chosen monitor at the warehouse. The idempotency
		// key makes the hold safe to retry; the compensation undoes it if
		// the transaction later aborts. Deliver it twice to simulate a
		// retransmitted request — exactly one hold must result.
		for attempt := 0; attempt < 2; attempt++ {
			step2 := wh.Handle(ctx, &broker.Request{
				Payload: []byte("HOLD " + sku + " 1"), Class: qos.Class3,
				TxnID: txnID, TxnStep: 2, IdemKey: "hold", NoCache: true,
			})
			if step2.Status != broker.StatusOK {
				return out, fmt.Errorf("hold %s: %v (%v)", sku, step2.Status, step2.Err)
			}
		}
		logicalMutations++ // two deliveries, one logical hold
		if tracker != nil {
			// A refusal (txn.ErrSagaLimit: too many open sagas on an
			// untimed tracker) would leave this hold with no undo.
			if err := tracker.RegisterCompensation(txnID, 2, "release-hold", release(sku)); err != nil {
				return out, fmt.Errorf("%s: hold %s has no compensation: %w", txnID, sku, err)
			}
		}
		// Step 3: return to the congested monitor vendor to match the held
		// models. This is the access the paper protects: dropped here, the
		// whole transaction aborts with a hold already placed.
		step3 := monitors.Handle(ctx, &broker.Request{
			Payload: []byte("MATCH " + sku), Class: qos.Class3,
			TxnID: txnID, TxnStep: 3, NoCache: true,
		})
		switch step3.Status {
		case broker.StatusError:
			return out, step3.Err
		case broker.StatusOK:
			commit := wh.Handle(ctx, &broker.Request{
				Payload: []byte("PURCHASE " + sku + " 1"), Class: qos.Class3,
				TxnID: txnID, TxnStep: 3, IdemKey: "commit", NoCache: true,
			})
			if commit.Status != broker.StatusOK {
				return out, fmt.Errorf("commit %s: %v (%v)", sku, commit.Status, commit.Err)
			}
			logicalMutations++
			if tracker != nil {
				_ = tracker.Complete(txnID)
			}
		default:
			out.aborted++
			if tracker != nil {
				// Saga abort: compensations run in reverse registration
				// order, releasing the hold. Flat mode just walks away.
				if _, err := tracker.AbortContext(ctx, txnID); err != nil {
					return out, err
				}
				logicalMutations++ // the compensating release
			}
		}
	}

	out.orphaned = warehouse.TotalHolds()
	out.duplicates = warehouse.Mutations() - logicalMutations

	mode := "flat"
	if integrity {
		mode = "integrity"
	}
	fmt.Printf("[%s] %d/%d aborted at step 3, %d holds orphaned, backend executed %d mutations for %d logical\n",
		mode, out.aborted, purchases, out.orphaned, warehouse.Mutations(), logicalMutations)
	return out, nil
}
