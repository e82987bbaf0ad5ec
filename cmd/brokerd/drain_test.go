package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/qos"
	"servicebroker/internal/wire"
)

// startDaemon runs brokerd in-process and returns its gateway address once it
// serves, and the channel run's result arrives on after the process gets a
// SIGTERM.
func startDaemon(t *testing.T, cfg config) (gwAddr string, done <-chan error) {
	t.Helper()
	gatewayUp := make(chan string, 1)
	testHookGatewayUp = func(addr string) { gatewayUp <- addr }
	t.Cleanup(func() { testHookGatewayUp = nil })
	daemonDone := make(chan error, 1)
	go func() { daemonDone <- run(cfg) }()
	select {
	case gwAddr = <-gatewayUp:
	case err := <-daemonDone:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("gateway never came up")
	}
	return gwAddr, daemonDone
}

// TestSIGTERMDrainsInFlightRequests is the graceful-shutdown acceptance
// test: a brokerd under SIGTERM must answer every request it has already
// accepted — zero lost — before exiting cleanly. It runs `run` in-process
// against a slow CGI backend, fills the broker with in-flight work, sends
// the process a real SIGTERM, and checks that every accepted request comes
// back with a full-fidelity OK while the daemon exits without error.
func TestSIGTERMDrainsInFlightRequests(t *testing.T) {
	const backendDelay = 120 * time.Millisecond

	// The slow backend: each CGI hit takes backendDelay.
	be, err := httpserver.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	be.Handle("/cgi", func(req *httpserver.Request) *httpserver.Response {
		time.Sleep(backendDelay)
		return httpserver.Text("done " + req.Query["q"])
	})

	gwAddr, daemonDone := startDaemon(t, config{
		services:     serviceFlags{"cgi:cgi:" + be.Addr().String()},
		listen:       "127.0.0.1:0",
		threshold:    8,
		classes:      3,
		workers:      4,
		drainTimeout: 5 * time.Second,
	})

	// A retransmit longer than the whole run keeps the client from sending
	// duplicate datagrams that would race the drain as "new" requests.
	cli, err := broker.DialGateway(gwAddr, wire.WithRetransmit(8*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Fill the broker: 4 executing + 2 queued, all admitted (class 1's
	// limit is the full threshold of 8).
	const inflight = 6
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type outcome struct {
		resp *broker.Response
		err  error
	}
	results := make(chan outcome, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cli.Do(ctx, "cgi", &broker.Request{
				Payload: []byte(fmt.Sprintf("/cgi?q=req%d", i)),
				Class:   qos.Class1,
				NoCache: true,
			})
			results <- outcome{resp, err}
		}(i)
	}

	// Let every request reach the broker, then pull the trigger.
	time.Sleep(60 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// While accepted work is still draining (the slow batches take several
	// hundred ms), a freshly issued request must be shed immediately with a
	// retry-after hint — the daemon stops taking new work the moment the
	// signal lands.
	time.Sleep(50 * time.Millisecond)
	resp, err := cli.Do(ctx, "cgi", &broker.Request{
		Payload: []byte("/cgi?q=late"), Class: qos.Class1, NoCache: true,
	})
	if err != nil {
		t.Fatalf("post-SIGTERM request errored: %v", err)
	}
	if resp.Status != broker.StatusShed {
		t.Fatalf("post-SIGTERM request = %+v, want shed", resp)
	}
	if resp.RetryAfter <= 0 {
		t.Fatalf("post-SIGTERM shed carries no retry-after: %+v", resp)
	}

	wg.Wait()
	close(results)
	for out := range results {
		if out.err != nil {
			t.Fatalf("accepted request lost in drain: %v", out.err)
		}
		if out.resp.Status != broker.StatusOK || out.resp.Fidelity != qos.FidelityFull {
			t.Fatalf("accepted request degraded in drain: %+v", out.resp)
		}
	}

	select {
	case err := <-daemonDone:
		if err != nil {
			t.Fatalf("daemon exit = %v, want clean shutdown", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}
