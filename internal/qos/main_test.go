package qos

import (
	"testing"

	"servicebroker/internal/testutil"
)

// TestMain fails the package if any test leaks a goroutine — a Pop blocked
// on a queue nobody closes would strand its waiter.
func TestMain(m *testing.M) { testutil.VerifyMain(m) }
