package main

import (
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	name, kind, addrs, err := parseSpec("db:db:127.0.0.1:7001")
	if err != nil {
		t.Fatal(err)
	}
	if name != "db" || kind != "db" || len(addrs) != 1 || addrs[0] != "127.0.0.1:7001" {
		t.Fatalf("parsed = %q %q %q", name, kind, addrs)
	}
	for _, bad := range []string{"", "db", "db:db", ":db:addr", "db::addr", "db:db:", "db:db:a||b"} {
		if _, _, _, err := parseSpec(bad); err == nil {
			t.Errorf("parseSpec(%q) succeeded", bad)
		}
	}
}

func TestParseSpecReplicas(t *testing.T) {
	name, kind, addrs, err := parseSpec("db:db:127.0.0.1:7001|127.0.0.1:7011|127.0.0.1:7021")
	if err != nil {
		t.Fatal(err)
	}
	if name != "db" || kind != "db" {
		t.Fatalf("parsed = %q %q", name, kind)
	}
	want := []string{"127.0.0.1:7001", "127.0.0.1:7011", "127.0.0.1:7021"}
	if len(addrs) != len(want) {
		t.Fatalf("addrs = %q, want %q", addrs, want)
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("addrs = %q, want %q", addrs, want)
		}
	}
}

func TestMakeConnector(t *testing.T) {
	for kind, wantName := range map[string]string{
		"db": "db", "dir": "dir", "mail": "mail", "web": "portal", "cgi": "portal",
	} {
		c, err := makeConnector("portal", kind, "127.0.0.1:1")
		if err != nil {
			t.Fatalf("makeConnector(%s): %v", kind, err)
		}
		if c.Name() != wantName {
			t.Errorf("kind %s name = %q, want %q", kind, c.Name(), wantName)
		}
	}
	if _, err := makeConnector("x", "ftp", "addr"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRunRequiresService(t *testing.T) {
	if err := run(config{listen: "127.0.0.1:0", threshold: 20, classes: 3, workers: 4}); err == nil {
		t.Fatal("run without services succeeded")
	}
}

// A negative count is refused before any socket opens. Each package below
// would otherwise read it as "use the default" or "off": -retries -1 became
// two retries, -breaker-failures -3 a threshold of 5.
func TestRunRejectsNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		flag string
		set  func(*config)
	}{
		{"-retries", func(c *config) { c.retries = -1 }},
		{"-breaker-failures", func(c *config) { c.breakerFailures = -3 }},
		{"-workers", func(c *config) { c.workers = -1 }},
		{"-cache", func(c *config) { c.cacheSize = -1 }},
		{"-cluster", func(c *config) { c.clusterDegree = -1 }},
		{"-adaptive-degree", func(c *config) { c.adaptiveDegree = -1 }},
		{"-hotkeys", func(c *config) { c.hotkeys = -1 }},
		{"-idem", func(c *config) { c.idemCap = -1 }},
	} {
		t.Run(tc.flag, func(t *testing.T) { mustRefuse(t, tc.flag, tc.set) })
	}
}

// A negative duration, or a sample fraction outside [0, 1], is refused before
// any socket opens too. Otherwise -drain-timeout -1s cut in-flight requests at
// SIGTERM, -cache-ttl -1s and -idem-ttl -1s kept entries forever, -lease-ttl
// silently became its default, and -txn-ttl -1s turned the abandonment sweep
// off.
func TestRunRejectsNegativeDurations(t *testing.T) {
	for _, tc := range []struct {
		flag string
		set  func(*config)
	}{
		{"-cache-ttl", func(c *config) { c.cacheTTL = -time.Second }},
		{"-lease-ttl", func(c *config) { c.leaseTTL = -time.Second }},
		{"-trace-slow", func(c *config) { c.traceSlow = -time.Second }},
		{"-latency-target", func(c *config) { c.latencyTarget = -time.Second }},
		{"-drain-timeout", func(c *config) { c.drainTimeout = -time.Second }},
		{"-txn-ttl", func(c *config) { c.txnTTL = -time.Second }},
		{"-idem-ttl", func(c *config) { c.idemTTL = -time.Second }},
		{"-trace-sample", func(c *config) { c.traceSample = -0.5 }},
		{"-trace-sample", func(c *config) { c.traceSample = 1.5 }},
	} {
		t.Run(tc.flag, func(t *testing.T) { mustRefuse(t, tc.flag, tc.set) })
	}
}

// mustRefuse runs brokerd with one flag set out of range and expects run to
// fail naming the flag, without ever serving.
func mustRefuse(t *testing.T, flag string, set func(*config)) {
	t.Helper()
	cfg := config{
		services: serviceFlags{"cgi:cgi:127.0.0.1:1"}, listen: "127.0.0.1:0",
		threshold: 20, classes: 3, workers: 4, retries: 2, breakerFailures: 5,
		drainTimeout: time.Second,
	}
	set(&cfg)
	up := make(chan struct{}, 1)
	testHookGatewayUp = func(string) { up <- struct{}{} }
	defer func() { testHookGatewayUp = nil }()
	done := make(chan error, 1)
	go func() { done <- run(cfg) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Fatalf("run = %v, want an error naming %s", err, flag)
		}
	case <-up:
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		<-done
		t.Fatalf("brokerd served with %s out of range", flag)
	case <-time.After(5 * time.Second):
		t.Fatal("run neither failed nor served")
	}
}

func TestResilienceConfigMapsFlags(t *testing.T) {
	rc := resilienceConfig(config{retries: 0, breakerFailures: 3})
	if rc.Retry.MaxAttempts != 1 {
		t.Fatalf("-retries 0: MaxAttempts = %d, want 1", rc.Retry.MaxAttempts)
	}
	if rc.Breaker.FailureThreshold != 3 {
		t.Fatalf("FailureThreshold = %d, want 3", rc.Breaker.FailureThreshold)
	}
	rc = resilienceConfig(config{retries: 2, serveStale: true})
	if rc.Retry.MaxAttempts != 3 || !rc.ServeStale {
		t.Fatalf("-retries 2 -serve-stale: got %+v", rc)
	}
}

func TestServiceFlags(t *testing.T) {
	var s serviceFlags
	s.Set("a:b:c")
	s.Set("d:e:f")
	if s.String() != "a:b:c,d:e:f" {
		t.Fatalf("String = %q", s.String())
	}
}
