package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/qos"
)

// stopDaemon sends the process a SIGTERM and waits for run to return.
func stopDaemon(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit = %v, want clean shutdown", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestJournalRestartReplaysRecordedOutcome runs brokerd's -txn-journal
// wiring end to end: a keyed mutation is recorded, the daemon shuts down,
// and a daemon restarted on the same journal answers the replayed key with
// the recorded outcome. The supply store lives in the process, so the
// restarted one starts empty: had the replay executed, the store would show
// the hold and count it.
func TestJournalRestartReplaysRecordedOutcome(t *testing.T) {
	cfg := config{
		services:     serviceFlags{"supply:supply:mem"},
		listen:       "127.0.0.1:0",
		threshold:    20,
		classes:      3,
		workers:      4,
		txn:          true,
		idemCap:      64,
		idemTTL:      time.Minute,
		txnJournal:   filepath.Join(t.TempDir(), "journal"),
		drainTimeout: time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hold := &broker.Request{Payload: []byte("HOLD sku-9 1"), Class: qos.Class1,
		TxnID: "p9", TxnStep: 2, IdemKey: "hold"}
	call := func(gwAddr string, req *broker.Request) string {
		t.Helper()
		cli, err := broker.DialGateway(gwAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		resp, err := cli.Do(ctx, "supply", req)
		if err != nil || resp.Status != broker.StatusOK {
			t.Fatalf("%s: %+v, %v", req.Payload, resp, err)
		}
		return string(resp.Payload)
	}

	gwAddr, done := startDaemon(t, cfg)
	recorded := call(gwAddr, hold)
	if !strings.Contains(recorded, "holds=1") || !strings.Contains(recorded, "mutation=1") {
		t.Fatalf("first hold = %q", recorded)
	}
	stopDaemon(t, done)
	if _, err := os.Stat(cfg.txnJournal + ".supply"); err != nil {
		t.Fatalf("journal not written: %v", err)
	}

	gwAddr, done = startDaemon(t, cfg)
	if replay := call(gwAddr, hold); replay != recorded {
		t.Fatalf("replay after restart = %q, want the recorded %q", replay, recorded)
	}
	if got := call(gwAddr, &broker.Request{Payload: []byte("GET sku-9"), Class: qos.Class1, NoCache: true}); !strings.Contains(got, "holds=0") {
		t.Fatalf("restarted store = %q: the replay executed", got)
	}
	fresh := call(gwAddr, &broker.Request{Payload: []byte("HOLD sku-10 1"), Class: qos.Class1,
		TxnID: "p10", TxnStep: 2, IdemKey: "hold"})
	if !strings.Contains(fresh, "mutation=1") {
		t.Fatalf("first new hold after restart = %q, want the store's first execution", fresh)
	}
	stopDaemon(t, done)
}
