package testutil

import (
	"context"
	"sort"
	"time"
)

// ChaosAction is the kind of fault a chaos event injects.
type ChaosAction int

// Fault kinds. Crash closes the member's socket (peers see ICMP
// port-unreachable → fast failure detection); Hang and the partitions flip
// netsim gates (traffic vanishes silently — the slow case).
const (
	ActionCrash ChaosAction = iota + 1
	ActionHang
	ActionPartitionIn  // member stops hearing the network
	ActionPartitionOut // member's answers stop leaving
)

// String names the action for logs and schedule dumps.
func (a ChaosAction) String() string {
	switch a {
	case ActionCrash:
		return "crash"
	case ActionHang:
		return "hang"
	case ActionPartitionIn:
		return "partition-in"
	case ActionPartitionOut:
		return "partition-out"
	default:
		return "chaos-action(?)"
	}
}

// ChaosEvent is one scheduled fault: member Member suffers Action at offset
// At from schedule start and recovers Duration later.
type ChaosEvent struct {
	At       time.Duration
	Member   int
	Action   ChaosAction
	Duration time.Duration
}

// ChaosHooks receives fault and recovery callbacks. Only the hooks for
// actions present in the schedule need to be set; missing hooks are
// skipped. Hooks run on the schedule goroutine, serially and in
// deterministic order.
type ChaosHooks struct {
	// Crash kills the member (close its socket); Restart brings it back.
	Crash   func(member int)
	Restart func(member int)
	// Hang/PartitionIn/PartitionOut flip the corresponding gate; on=true at
	// fault time, on=false at recovery.
	Hang         func(member int, on bool)
	PartitionIn  func(member int, on bool)
	PartitionOut func(member int, on bool)
}

// chaosStep is one expanded timeline entry: a fault onset or a recovery.
type chaosStep struct {
	at      time.Duration
	ev      ChaosEvent
	recover bool
}

// chaosTimeline expands events into onset+recovery steps sorted by time,
// ties broken by (member, action, recovery-last) so identical schedules
// always execute identically.
func chaosTimeline(events []ChaosEvent) []chaosStep {
	steps := make([]chaosStep, 0, 2*len(events))
	for _, ev := range events {
		steps = append(steps, chaosStep{at: ev.At, ev: ev})
		steps = append(steps, chaosStep{at: ev.At + ev.Duration, ev: ev, recover: true})
	}
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].at != steps[j].at {
			return steps[i].at < steps[j].at
		}
		if steps[i].ev.Member != steps[j].ev.Member {
			return steps[i].ev.Member < steps[j].ev.Member
		}
		if steps[i].recover != steps[j].recover {
			return !steps[i].recover // recover after onset at the same instant
		}
		return steps[i].ev.Action < steps[j].ev.Action
	})
	return steps
}

// RunChaos executes the schedule against the hooks, sleeping real (not
// simulated) time between steps, and returns when the last recovery has
// fired or ctx is done. The timeline — which hook fires, for which member,
// in which order — is a pure function of the schedule; only the wall-clock
// spacing varies run to run.
func RunChaos(ctx context.Context, events []ChaosEvent, hooks ChaosHooks) {
	start := time.Now()
	for _, step := range chaosTimeline(events) {
		wait := step.at - time.Since(start)
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return
		}
		fire(step, hooks)
	}
}

func fire(step chaosStep, hooks ChaosHooks) {
	m := step.ev.Member
	switch step.ev.Action {
	case ActionCrash:
		if step.recover {
			if hooks.Restart != nil {
				hooks.Restart(m)
			}
		} else if hooks.Crash != nil {
			hooks.Crash(m)
		}
	case ActionHang:
		if hooks.Hang != nil {
			hooks.Hang(m, !step.recover)
		}
	case ActionPartitionIn:
		if hooks.PartitionIn != nil {
			hooks.PartitionIn(m, !step.recover)
		}
	case ActionPartitionOut:
		if hooks.PartitionOut != nil {
			hooks.PartitionOut(m, !step.recover)
		}
	}
}
