package experiments

import (
	"context"
	"net"
	"testing"
	"time"
)

func TestRunBrokerFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	cfg := DefaultFailoverConfig(true)
	cfg.Run = 1200 * time.Millisecond
	cfg.Kills = 2
	cfg.KillStart = 200 * time.Millisecond
	cfg.KillInterval = 450 * time.Millisecond
	cfg.DownFor = 300 * time.Millisecond
	cfg.HangFor = 0
	cfg.PartitionFor = 0

	res, err := RunBrokerFailover(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The assertion here is replication beating a single broker. How
	// available the pool stays within the deadline, and that no premium
	// request is lost, are outcomes of a timed run on a shared host:
	// `sbexp -exp failover` checks them and exits non-zero, and
	// frontend.TestPoolPremiumTriesEveryMember pins the premium promise
	// without a clock.
	if res.Single.Availability >= res.Pool.Availability {
		t.Errorf("single %.4f did not collapse vs pool %.4f",
			res.Single.Availability, res.Pool.Availability)
	}
	if res.Pool.LeaseExpirations < 1 {
		t.Errorf("no lease expirations observed (%d)", res.Pool.LeaseExpirations)
	}
	if res.Pool.Issued == 0 || res.Single.Issued == 0 {
		t.Errorf("empty run: single issued=%d pool issued=%d", res.Single.Issued, res.Pool.Issued)
	}
}

// A member whose pinned port is taken while it is down cannot rebind; the
// restart must say so instead of leaving the member silently down.
func TestChaosMemberRestartReportsRebindFailure(t *testing.T) {
	m, err := newChaosMember(0, "", DefaultFailoverConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	m.crash()
	squatter, err := net.ListenPacket("udp", m.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	if err := m.restart(); err == nil {
		t.Fatal("restart on a held port reported no error")
	}
}
