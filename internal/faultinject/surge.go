// Load-surge injection: where the rest of this package breaks the
// network under a request, Surge breaks the *arrival rate* — it floods a
// target with concurrent closed-loop clients, the ingredient overload
// experiments need (paper Fig. 10/11: many schedulers hammering one
// community index). Each simulated client issues its operation, waits
// for the verdict, and immediately issues the next, so offered load is
// Clients divided by the per-request latency — exactly the behaviour of
// N impatient schedulers, and self-throttling enough that a shedding
// server bounds the flood instead of drowning in it.
package faultinject

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SurgeStats is a snapshot of a surge's progress.
type SurgeStats struct {
	// Issued counts operations started (and, closed-loop, finished).
	Issued uint64
	// Failed counts operations whose do() returned an error.
	Failed uint64
}

// Surge floods a target with Clients concurrent closed-loop callers.
type Surge struct {
	clients int
	do      func(ctx context.Context) error
	ramp    time.Duration

	issued atomic.Uint64
	failed atomic.Uint64

	mu     sync.Mutex
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewSurge prepares a surge of clients concurrent callers of do. The
// surge is inert until Start.
func NewSurge(clients int, do func(ctx context.Context) error) *Surge {
	if clients <= 0 {
		clients = 1
	}
	return &Surge{clients: clients, do: do}
}

// SetRamp staggers client starts evenly across d instead of unleashing
// the whole fleet in one instant. Real client hordes do not arrive
// phase-locked, and a synchronized burst makes a flood lumpier (and
// easier on the target between bursts) than the offered load implies.
// Must be set before Start.
func (s *Surge) SetRamp(d time.Duration) { s.ramp = d }

// Start launches the flood. Each client loops do() until Stop (or the
// parent context) cancels; a failed operation does not stop its client —
// real schedulers retry, and an overload experiment needs the pressure
// to persist through shedding.
func (s *Surge) Start(parent context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		return // already running
	}
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	s.cancel = cancel
	for i := 0; i < s.clients; i++ {
		s.wg.Add(1)
		delay := time.Duration(0)
		if s.ramp > 0 {
			delay = s.ramp * time.Duration(i) / time.Duration(s.clients)
		}
		go func() {
			defer s.wg.Done()
			if delay > 0 {
				t := time.NewTimer(delay)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return
				}
			}
			for ctx.Err() == nil {
				err := s.do(ctx)
				if ctx.Err() != nil && err != nil {
					return // shutdown race: don't count the aborted call
				}
				s.issued.Add(1)
				if err != nil {
					s.failed.Add(1)
				}
			}
		}()
	}
}

// Stop cancels every client and waits for in-flight operations to
// drain, then reports the final tally. Safe to call more than once.
func (s *Surge) Stop() SurgeStats {
	s.mu.Lock()
	cancel := s.cancel
	s.cancel = nil
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.wg.Wait()
	return s.Stats()
}

// Stats snapshots progress without stopping the surge.
func (s *Surge) Stats() SurgeStats {
	return SurgeStats{Issued: s.issued.Load(), Failed: s.failed.Load()}
}
