package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"servicebroker/internal/broker"
	"servicebroker/internal/httpserver"
	"servicebroker/internal/qos"
	"servicebroker/internal/tsdb"
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
// feeds), every listed page answers, and the drop-ratio probe behind /graphz
// counts threshold refusals — they are StatusShed, which the probe read as
// zero when it divided dropped_class_<k> alone.
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
		classes:      3,
		workers:      1,
		sampleEvery:  10 * time.Millisecond,
		drainTimeout: 5 * time.Second,
		cacheSize:    64,
		cacheTTL:     time.Minute,
		hotkeys:      8,
		coalesce:     true,
		slo:          true,
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
	for _, page := range []string{"/loadz", "/breakerz", "/limitz", "/hotz", "/sloz", "/txnz", "/eventz", "/graphz"} {
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
		t.Fatal("the overload shed nothing; the probe has nothing to count")
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		_, body := adminGet(t, base+"/seriesz?match=drop_ratio_class_3")
		var doc struct {
			Series []tsdb.Series `json:"series"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/seriesz: %v\n%s", err, body)
		}
		if len(doc.Series) == 1 && len(doc.Series[0].Points) > 0 {
			last := doc.Series[0].Points[len(doc.Series[0].Points)-1].V
			if want := float64(shed) / 12; last == want {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("drop_ratio_class_3 never read %d/12 after %d shed replies:\n%s", shed, shed, body)
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
