package faultinject

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSurgeClosedLoop(t *testing.T) {
	var inflight, peak atomic.Int64
	s := NewSurge(4, func(ctx context.Context) error {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	s.Start(context.Background())
	time.Sleep(50 * time.Millisecond)
	st := s.Stop()
	if st.Issued == 0 {
		t.Fatal("surge issued nothing")
	}
	if st.Failed != 0 {
		t.Fatalf("unexpected failures: %d", st.Failed)
	}
	// Closed loop: concurrency never exceeds the client count.
	if p := peak.Load(); p > 4 {
		t.Fatalf("peak inflight %d exceeds 4 clients", p)
	}
	if inflight.Load() != 0 {
		t.Fatal("Stop returned with operations still in flight")
	}
}

func TestSurgeCountsFailuresAndKeepsGoing(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Uint64
	s := NewSurge(2, func(ctx context.Context) error {
		if calls.Add(1)%2 == 0 {
			return boom
		}
		return nil
	})
	s.Start(context.Background())
	for i := 0; calls.Load() < 20; i++ {
		if i > 1000 {
			t.Fatal("surge stalled")
		}
		time.Sleep(time.Millisecond)
	}
	st := s.Stop()
	if st.Failed == 0 || st.Failed >= st.Issued {
		t.Fatalf("stats = %+v, want some but not all failed", st)
	}
}

func TestSurgeParentContextStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSurge(2, func(ctx context.Context) error { return nil })
	s.Start(ctx)
	cancel()
	done := make(chan SurgeStats, 1)
	go func() { done <- s.Stop() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung after parent cancel")
	}
}

func TestSurgeRampStaggersStarts(t *testing.T) {
	var first sync.Map
	s := NewSurge(4, func(ctx context.Context) error {
		first.LoadOrStore(time.Now(), true)
		time.Sleep(time.Millisecond)
		return nil
	})
	s.SetRamp(200 * time.Millisecond)
	start := time.Now()
	s.Start(context.Background())
	time.Sleep(120 * time.Millisecond)
	st := s.Stop()
	if st.Issued == 0 {
		t.Fatal("ramped surge issued nothing")
	}
	// With a 200ms ramp over 4 clients, the last client starts at 150ms;
	// stopping at ~120ms must not have waited for it, and at least one
	// staggered client (50ms or 100ms offset) must have started late.
	late := false
	first.Range(func(k, _ any) bool {
		if k.(time.Time).Sub(start) > 40*time.Millisecond {
			late = true
		}
		return true
	})
	if !late {
		t.Fatal("ramp did not stagger any client start")
	}
}

func TestSurgeDoubleStartAndStop(t *testing.T) {
	s := NewSurge(1, func(ctx context.Context) error { return nil })
	s.Start(context.Background())
	s.Start(context.Background()) // no-op, must not double the fleet
	s.Stop()
	s.Stop() // idempotent
}
