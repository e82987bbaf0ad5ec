package backend

import (
	"context"
	"errors"
	"testing"
	"time"
)

func echoConnector(name string) *FuncConnector {
	return &FuncConnector{
		ServiceName: name,
		DoFn: func(_ context.Context, payload []byte) ([]byte, error) {
			return append([]byte("done:"), payload...), nil
		},
	}
}

func TestFaultConnectorPassthrough(t *testing.T) {
	f := &FaultConnector{Inner: echoConnector("db")}
	if f.Name() != "db" {
		t.Fatalf("Name = %q", f.Name())
	}
	s, err := f.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Do(context.Background(), []byte("q"))
	if err != nil || string(out) != "done:q" {
		t.Fatalf("Do = %q, %v", out, err)
	}
	if calls, failures := f.Stats(); calls != 1 || failures != 0 {
		t.Fatalf("stats = %d calls, %d failures", calls, failures)
	}
}

func TestFaultConnectorSetDown(t *testing.T) {
	f := &FaultConnector{Inner: echoConnector("db")}
	s, err := f.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	f.SetDown(true)
	if _, err := s.Do(context.Background(), []byte("q")); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("Do on downed replica = %v, want ErrReplicaDown", err)
	}
	if _, err := f.Connect(context.Background()); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("Connect on downed replica = %v, want ErrReplicaDown", err)
	}

	f.SetDown(false)
	if out, err := s.Do(context.Background(), []byte("q")); err != nil || string(out) != "done:q" {
		t.Fatalf("Do after revival = %q, %v", out, err)
	}
}

func TestFaultConnectorFailFirstThenRecover(t *testing.T) {
	f := &FaultConnector{Inner: echoConnector("db"), FailFirst: 3}
	s, err := f.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Do(context.Background(), []byte("q")); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d = %v, want ErrInjected", i+1, err)
		}
	}
	if out, err := s.Do(context.Background(), []byte("q")); err != nil || string(out) != "done:q" {
		t.Fatalf("recovered call = %q, %v", out, err)
	}
	if calls, failures := f.Stats(); calls != 4 || failures != 3 {
		t.Fatalf("stats = %d calls, %d failures", calls, failures)
	}
}

func TestFaultConnectorDeterministicErrorStream(t *testing.T) {
	run := func() []bool {
		f := &FaultConnector{Inner: echoConnector("db"), ErrorRate: 0.5, Seed: 7}
		s, err := f.Connect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var outcomes []bool
		for i := 0; i < 64; i++ {
			_, err := s.Do(context.Background(), []byte("q"))
			outcomes = append(outcomes, err != nil)
		}
		return outcomes
	}
	a, b := run(), run()
	var fails int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged between identically seeded runs", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("fails = %d of %d, want a mixed stream", fails, len(a))
	}
}

func TestFaultConnectorHangsUntilContextDone(t *testing.T) {
	f := &FaultConnector{Inner: echoConnector("db"), HangRate: 1}
	s, err := f.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.Do(ctx, []byte("q"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung Do = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("Do returned before the context expired")
	}
}

func TestFaultConnectorConnectFailures(t *testing.T) {
	f := &FaultConnector{Inner: echoConnector("db"), ConnectFailRate: 1}
	if _, err := f.Connect(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("Connect = %v, want ErrInjected", err)
	}
}
