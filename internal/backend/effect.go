package backend

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// EffectConnector is an in-memory supply-chain backend whose operations are
// *effects*: every mutating command is counted, so tests and experiments can
// assert exactly-once execution under retries, duplicate delivery, and
// failover (the ground truth the broker's idempotency table is judged
// against). It models the paper's §III three-step purchase — hold the item,
// hold the payment, commit the purchase — with explicit compensations.
//
// Payload syntax (one command per request):
//
//	HOLD <sku> <n>      place a hold of n units        (mutation)
//	RELEASE <sku> <n>   release a hold (compensation)  (mutation)
//	PURCHASE <sku> <n>  convert a hold into a purchase (mutation)
//	GET <sku>           read a SKU's state             (read-only)
//
// RELEASE of more units than are held and PURCHASE of more units than are
// held are errors — which is exactly how a double-executed compensation or
// commit betrays itself in a chaos run.
type EffectConnector struct {
	// ServiceName is returned by Name; empty defaults to "supply".
	ServiceName string

	mu        sync.Mutex
	holds     map[string]int
	purchased map[string]int
	mutations int64
}

var _ Connector = (*EffectConnector)(nil)

// Name implements Connector.
func (c *EffectConnector) Name() string {
	if c.ServiceName == "" {
		return "supply"
	}
	return c.ServiceName
}

// Connect implements Connector. Sessions share the connector's state — the
// backend is the store, not the session.
func (c *EffectConnector) Connect(context.Context) (Session, error) {
	return &effectSession{c: c}, nil
}

// Mutations returns how many mutating commands actually executed — the
// number an exactly-once system keeps equal to the logically issued count.
func (c *EffectConnector) Mutations() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutations
}

// TotalHolds sums outstanding holds across all SKUs. After every
// transaction has committed or compensated, a correct run leaves zero.
func (c *EffectConnector) TotalHolds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, h := range c.holds {
		n += h
	}
	return n
}

type effectSession struct{ c *EffectConnector }

func (s *effectSession) Do(_ context.Context, payload []byte) ([]byte, error) {
	fields := strings.Fields(string(payload))
	if len(fields) == 0 {
		return nil, fmt.Errorf("supply: empty command")
	}
	cmd := strings.ToUpper(fields[0])
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holds == nil {
		c.holds = make(map[string]int)
		c.purchased = make(map[string]int)
	}
	switch cmd {
	case "GET":
		if len(fields) != 2 {
			return nil, fmt.Errorf("supply: usage: GET <sku>")
		}
		sku := fields[1]
		return []byte(fmt.Sprintf("sku=%s holds=%d purchased=%d", sku, c.holds[sku], c.purchased[sku])), nil
	case "HOLD", "RELEASE", "PURCHASE":
		if len(fields) != 3 {
			return nil, fmt.Errorf("supply: usage: %s <sku> <n>", cmd)
		}
		sku := fields[1]
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("supply: bad quantity %q", fields[2])
		}
		switch cmd {
		case "HOLD":
			c.holds[sku] += n
		case "RELEASE":
			if c.holds[sku] < n {
				return nil, fmt.Errorf("supply: release of %d exceeds %d held for %s (duplicate compensation?)", n, c.holds[sku], sku)
			}
			c.holds[sku] -= n
		case "PURCHASE":
			if c.holds[sku] < n {
				return nil, fmt.Errorf("supply: purchase of %d exceeds %d held for %s", n, c.holds[sku], sku)
			}
			c.holds[sku] -= n
			c.purchased[sku] += n
		}
		c.mutations++
		return []byte(fmt.Sprintf("%s ok: sku=%s n=%d holds=%d purchased=%d mutation=%d",
			strings.ToLower(cmd), sku, n, c.holds[sku], c.purchased[sku], c.mutations)), nil
	default:
		return nil, fmt.Errorf("supply: unknown command %q", cmd)
	}
}

func (s *effectSession) Close() error { return nil }
