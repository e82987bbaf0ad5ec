package testutil

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// record runs the schedule and returns the hook firing order as strings.
func record(t *testing.T, events []ChaosEvent) []string {
	t.Helper()
	var got []string
	add := func(kind string, m int) { got = append(got, fmt.Sprintf("%s:%d", kind, m)) }
	onoff := func(kind string) func(int, bool) {
		return func(m int, on bool) {
			state := "off"
			if on {
				state = "on"
			}
			add(kind+"-"+state, m)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	RunChaos(ctx, events, ChaosHooks{
		Crash:        func(m int) { add("crash", m) },
		Restart:      func(m int) { add("restart", m) },
		Hang:         onoff("hang"),
		PartitionIn:  onoff("pin"),
		PartitionOut: onoff("pout"),
	})
	return got
}

func TestRunChaosDeterministicOrder(t *testing.T) {
	// Mixed schedule with simultaneous steps: the firing order must be a
	// pure function of the schedule, identical across runs.
	events := []ChaosEvent{
		{At: 10 * time.Millisecond, Member: 1, Action: ActionHang, Duration: 20 * time.Millisecond},
		{At: 10 * time.Millisecond, Member: 0, Action: ActionCrash, Duration: 20 * time.Millisecond},
		{At: 30 * time.Millisecond, Member: 2, Action: ActionPartitionIn, Duration: 10 * time.Millisecond},
		{At: 30 * time.Millisecond, Member: 2, Action: ActionPartitionOut, Duration: 10 * time.Millisecond},
	}
	want := []string{
		"crash:0", "hang-on:1",
		"restart:0", "hang-off:1", "pin-on:2", "pout-on:2",
		"pin-off:2", "pout-off:2",
	}
	for run := 0; run < 3; run++ {
		if got := record(t, events); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d order = %v, want %v", run, got, want)
		}
	}
}

func TestRunChaosHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fired := false
	RunChaos(ctx, []ChaosEvent{
		{At: time.Hour, Member: 0, Action: ActionCrash, Duration: time.Minute},
		{At: 2 * time.Hour, Member: 1, Action: ActionCrash, Duration: time.Minute},
	}, ChaosHooks{
		Crash: func(int) { fired = true },
	})
	if fired {
		t.Fatal("cancelled schedule still fired hooks")
	}
}
