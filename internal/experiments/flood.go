package experiments

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"glare/internal/faultinject"
	"glare/internal/transport"
)

// FloodOp is one operation mix in a flood: Clients concurrent
// closed-loop callers, each giving every call a Budget of deadline.
type FloodOp struct {
	// Name labels the mix in the result ("resolve", "scan", ...).
	Name string
	// Class is the priority class the operation lands in, for reporting
	// ("control", "interactive", "bulk").
	Class string
	// Clients is the closed-loop fleet size.
	Clients int
	// Budget is the per-call deadline budget propagated to the server;
	// zero sends no deadline.
	Budget time.Duration
	// Ramp staggers the fleet's starts evenly across this duration, so
	// the flood's offered load builds up like a real client horde instead
	// of one phase-locked burst.
	Ramp time.Duration
	// Do issues one operation. ctx carries the call's deadline.
	Do func(ctx context.Context) error
}

// FloodConfig drives RunFlood.
type FloodConfig struct {
	// Duration is how long the flood runs.
	Duration time.Duration
	// Ops are the concurrent operation mixes.
	Ops []FloodOp
}

// OpStats is one operation mix's outcome tally.
type OpStats struct {
	Name  string
	Class string
	// Issued counts completed calls; OK the successful ones.
	Issued uint64
	OK     uint64
	// Shed counts admission refusals (server-shed, server-brownout);
	// Expired counts deadline losses on either side (server-expired,
	// client deadline, timeout); Unavailable the remaining transport
	// failures; Faults the application-level errors.
	Shed        uint64
	Expired     uint64
	Unavailable uint64
	Faults      uint64
	// P50 and P99 are latency quantiles over every completed call.
	P50 time.Duration
	P99 time.Duration
	// Goodput is OK per second of flood time.
	Goodput float64
}

// FloodResult is a finished flood.
type FloodResult struct {
	Elapsed time.Duration
	Ops     []OpStats
}

// Goodput is the total successful operations per second across mixes.
func (r FloodResult) Goodput() float64 {
	var g float64
	for _, op := range r.Ops {
		g += op.Goodput
	}
	return g
}

// Op returns the named mix's stats (zero value when absent).
func (r FloodResult) Op(name string) OpStats {
	for _, op := range r.Ops {
		if op.Name == name {
			return op
		}
	}
	return OpStats{}
}

// floodTally accumulates one mix's outcomes under a lock of its own.
type floodTally struct {
	mu   sync.Mutex
	st   OpStats
	lats []time.Duration
}

// observe classifies one completed call. The classification mirrors the
// transport taxonomy: overload refusals arrive as Unavailable with a
// "server-" reason, deadline losses as "deadline"/"timeout"/
// "server-expired", and application errors as *transport.Fault.
func (t *floodTally) observe(err error, lat time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.Issued++
	t.lats = append(t.lats, lat)
	if err == nil {
		t.st.OK++
		return
	}
	var un *transport.Unavailable
	var fault *transport.Fault
	switch {
	case errors.As(err, &un):
		switch un.Reason {
		case "server-shed", "server-brownout":
			t.st.Shed++
		case "server-expired", "deadline", "timeout":
			t.st.Expired++
		default:
			t.st.Unavailable++
		}
	case errors.As(err, &fault):
		t.st.Faults++
	case errors.Is(err, context.DeadlineExceeded):
		t.st.Expired++
	default:
		t.st.Unavailable++
	}
}

// finish folds the latency samples into quantiles and goodput.
func (t *floodTally) finish(name, class string, elapsed time.Duration) OpStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	st.Name, st.Class = name, class
	st.P50 = quantile(t.lats, 0.50)
	st.P99 = quantile(t.lats, 0.99)
	if elapsed > 0 {
		st.Goodput = float64(st.OK) / elapsed.Seconds()
	}
	return st
}

func quantile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := make([]time.Duration, len(lats))
	copy(s, lats)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// RunFlood is the overload request generator: the paper's Fig. 10/11
// experiment shape, where a growing crowd of schedulers hammers one
// community until its index collapses — except here the point is to show
// the admission layer *preventing* the collapse. A flood runs several
// operation mixes at once (control probes, interactive resolutions, bulk
// scans), each with its own closed-loop client fleet and deadline
// budget, and reports per-class goodput, shed/expiry counts and latency
// quantiles so a test can assert the brownout ladder: control and
// interactive hold their SLOs while bulk sheds.
//
// It runs every mix's client fleet for cfg.Duration (or until ctx
// cancels) and tallies the outcomes.
func RunFlood(ctx context.Context, cfg FloodConfig) FloodResult {
	if ctx == nil {
		ctx = context.Background()
	}
	surges := make([]*faultinject.Surge, len(cfg.Ops))
	tallies := make([]*floodTally, len(cfg.Ops))
	for i, op := range cfg.Ops {
		op := op
		tally := &floodTally{}
		tallies[i] = tally
		surges[i] = faultinject.NewSurge(op.Clients, func(surgeCtx context.Context) error {
			callCtx := surgeCtx
			if op.Budget > 0 {
				var cancel context.CancelFunc
				callCtx, cancel = context.WithTimeout(surgeCtx, op.Budget)
				defer cancel()
			}
			start := time.Now()
			err := op.Do(callCtx)
			// Classify inside the operation so the latency and the
			// verdict land in the tally atomically. A call aborted by
			// flood shutdown (surge context, not its own budget) is not an
			// outcome and stays untallied.
			if surgeCtx.Err() == nil || err == nil {
				tally.observe(err, time.Since(start))
			}
			return err
		})
		surges[i].SetRamp(op.Ramp)
	}
	start := time.Now()
	for _, s := range surges {
		s.Start(ctx)
	}
	select {
	case <-time.After(cfg.Duration):
	case <-ctx.Done():
	}
	// The measurement window closes here: Stop still waits for in-flight
	// operations (and polite-backoff sleeps) to drain, and counting that
	// tail in elapsed would dilute goodput with time no load was offered.
	elapsed := time.Since(start)
	for _, s := range surges {
		s.Stop()
	}

	res := FloodResult{Elapsed: elapsed}
	for i, op := range cfg.Ops {
		res.Ops = append(res.Ops, tallies[i].finish(op.Name, op.Class, elapsed))
	}
	return res
}
