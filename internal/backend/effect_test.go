package backend

import (
	"context"
	"strings"
	"testing"
)

func TestEffectConnectorLifecycle(t *testing.T) {
	c := &EffectConnector{}
	s, err := c.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	do := func(cmd string) (string, error) {
		out, err := s.Do(context.Background(), []byte(cmd))
		return string(out), err
	}

	if _, err := do("HOLD sku-1 2"); err != nil {
		t.Fatal(err)
	}
	if c.TotalHolds() != 2 || c.Mutations() != 1 {
		t.Fatalf("after hold: holds=%d mutations=%d", c.TotalHolds(), c.Mutations())
	}
	if _, err := do("PURCHASE sku-1 2"); err != nil {
		t.Fatal(err)
	}
	if c.TotalHolds() != 0 || c.Mutations() != 2 {
		t.Fatalf("after purchase: holds=%d mutations=%d", c.TotalHolds(), c.Mutations())
	}

	// Reads are not mutations.
	out, err := do("GET sku-1")
	if err != nil || !strings.Contains(out, "purchased=2") {
		t.Fatalf("get: %q err=%v", out, err)
	}
	if c.Mutations() != 2 {
		t.Fatal("GET counted as a mutation")
	}

	// A compensation pairs with its hold...
	do("HOLD sku-2 1")
	if _, err := do("RELEASE sku-2 1"); err != nil {
		t.Fatal(err)
	}
	if c.TotalHolds() != 0 {
		t.Fatalf("orphaned holds: %d", c.TotalHolds())
	}
	// ...and a duplicate compensation is an error, not a silent negative.
	if _, err := do("RELEASE sku-2 1"); err == nil {
		t.Fatal("duplicate release accepted")
	}
	// A purchase without a hold is an error too.
	if _, err := do("PURCHASE sku-3 1"); err == nil {
		t.Fatal("purchase without hold accepted")
	}
}
