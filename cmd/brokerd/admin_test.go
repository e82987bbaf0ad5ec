package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/qos"
)

func adminGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestAdminPlaneUnderOverload runs brokerd in-process with every admin
// feature on and a backend a sixth as fast as the offered load. The index
// lists the broker's row pages (and not /poolz, which nothing in a brokerd
// feeds), every listed page answers, and class 3's refusals on /metrics,
// shed_class_3 + dropped_class_3, count every threshold refusal: those are
// StatusShed, which dropped_class_<k> alone reads as zero. The adaptive
// admission limit is read on /metrics too, as limit_current.
func TestAdminPlaneUnderOverload(t *testing.T) {
	be, err := httpserver.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	be.Handle("/cgi", func(req *httpserver.Request) *httpserver.Response {
		time.Sleep(100 * time.Millisecond)
		return httpserver.Text("done " + req.Query["q"])
	})

	// Reserve a port for -admin: run only logs the address it bound.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin := l.Addr().String()
	l.Close()

	gwAddr, daemonDone := startDaemon(t, config{
		services:     serviceFlags{"cgi:cgi:" + be.Addr().String()},
		listen:       "127.0.0.1:0",
		admin:        admin,
		threshold:    4,
		limitMax:     4,
		classes:      3,
		workers:      1,
		drainTimeout: 5 * time.Second,
		cacheSize:    64,
		cacheTTL:     time.Minute,
		hotkeys:      8,
		coalesce:     true,
		txn:          true,
		idemCap:      16,
		idemTTL:      time.Minute,
	})
	base := "http://" + admin

	_, index := adminGet(t, base+"/")
	listed := make(map[string]bool)
	for _, line := range strings.Split(index, "\n") {
		if page, _, ok := strings.Cut(line, "\t"); ok && strings.HasPrefix(page, "/") {
			listed[page] = true
			if code, body := adminGet(t, base+page); code != 200 || strings.TrimSpace(body) == "" {
				t.Errorf("listed page %s = %d %q", page, code, body)
			}
		}
	}
	for _, page := range []string{"/loadz", "/breakerz", "/hotz", "/txnz", "/eventz"} {
		if !listed[page] {
			t.Errorf("index does not list %s:\n%s", page, index)
		}
	}
	if code, _ := adminGet(t, base+"/poolz"); listed["/poolz"] || code != 404 {
		t.Errorf("/poolz on a brokerd: listed=%v status=%d, want unlisted 404", listed["/poolz"], code)
	}

	// Twelve class-3 requests at once against a threshold of 4: class 3's
	// share is the smallest, so most are refused at the threshold check.
	cli, err := broker.DialGateway(gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed := 0
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cli.Do(ctx, "cgi", &broker.Request{
				Payload: []byte(fmt.Sprintf("/cgi?q=req%d", i)), Class: qos.Class3, NoCache: true})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if resp.Status == broker.StatusShed {
				mu.Lock()
				shed++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if shed == 0 {
		t.Fatal("the overload shed nothing; /metrics has nothing to count")
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		_, body := adminGet(t, base+"/metrics")
		counter := func(name string) int {
			for _, line := range strings.Split(body, "\n") {
				if v, ok := strings.CutPrefix(line, name+" "); ok {
					n, _ := strconv.Atoi(v)
					return n
				}
			}
			return -1
		}
		requests := counter("broker_cgi_requests_class_3")
		refused := counter("broker_cgi_shed_class_3") + counter("broker_cgi_dropped_class_3")
		if requests == 12 && refused == shed {
			if limit := counter("broker_cgi_limit_current"); limit < 1 || limit > 4 {
				t.Fatalf("broker_cgi_limit_current = %d, want the adaptive limit within [1, 4]", limit)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("class 3 on /metrics: requests=%d shed+dropped=%d, want 12 and %d shed replies:\n%s",
				requests, refused, shed, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
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
