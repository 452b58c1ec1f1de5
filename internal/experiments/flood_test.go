package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"glare/internal/transport"
)

func TestFloodTallyClassification(t *testing.T) {
	tally := &floodTally{}
	tally.observe(nil, time.Millisecond)
	tally.observe(&transport.Unavailable{Reason: "server-shed"}, time.Millisecond)
	tally.observe(&transport.Unavailable{Reason: "server-brownout"}, time.Millisecond)
	tally.observe(&transport.Unavailable{Reason: "server-expired"}, time.Millisecond)
	tally.observe(&transport.Unavailable{Reason: "deadline"}, time.Millisecond)
	tally.observe(&transport.Unavailable{Reason: "timeout"}, time.Millisecond)
	tally.observe(&transport.Unavailable{Reason: "connection"}, time.Millisecond)
	tally.observe(&transport.Fault{Message: "bad request"}, time.Millisecond)
	tally.observe(context.DeadlineExceeded, time.Millisecond)
	tally.observe(errors.New("mystery"), time.Millisecond)

	st := tally.finish("mix", "interactive", time.Second)
	want := OpStats{
		Name: "mix", Class: "interactive",
		Issued: 10, OK: 1, Shed: 2, Expired: 4, Unavailable: 2, Faults: 1,
		P50: time.Millisecond, P99: time.Millisecond, Goodput: 1,
	}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestRunFloodBudgetEnforced(t *testing.T) {
	var sawDeadline atomic.Bool
	res := RunFlood(context.Background(), FloodConfig{
		Duration: 50 * time.Millisecond,
		Ops: []FloodOp{{
			Name: "probe", Class: "control", Clients: 2,
			Budget: 10 * time.Millisecond,
			Do: func(ctx context.Context) error {
				if _, ok := ctx.Deadline(); ok {
					sawDeadline.Store(true)
				}
				return nil
			},
		}},
	})
	if !sawDeadline.Load() {
		t.Fatal("Budget did not reach the call context")
	}
	op := res.Op("probe")
	if op.Issued == 0 || op.OK != op.Issued {
		t.Fatalf("stats = %+v, want all OK", op)
	}
	if res.Goodput() <= 0 {
		t.Fatalf("goodput = %v, want > 0", res.Goodput())
	}
}

func TestRunFloodCountsBudgetExpiry(t *testing.T) {
	res := RunFlood(context.Background(), FloodConfig{
		Duration: 60 * time.Millisecond,
		Ops: []FloodOp{{
			Name: "slow", Class: "bulk", Clients: 1,
			Budget: 5 * time.Millisecond,
			Do: func(ctx context.Context) error {
				<-ctx.Done() // always outlives its budget
				return ctx.Err()
			},
		}},
	})
	op := res.Op("slow")
	if op.Expired == 0 {
		t.Fatalf("stats = %+v, want budget expiries tallied", op)
	}
	if op.OK != 0 {
		t.Fatalf("stats = %+v, want no successes", op)
	}
}

func TestQuantile(t *testing.T) {
	lats := []time.Duration{5, 1, 4, 2, 3}
	if got := quantile(lats, 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := quantile(lats, 0.99); got != 4 {
		t.Fatalf("p99 over 5 samples = %v, want 4 (index 3)", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}
