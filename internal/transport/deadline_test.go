package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"glare/internal/faultinject"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

func TestDeadlineStampRoundTrip(t *testing.T) {
	env := xmlutil.NewNode("Envelope")
	stampDeadline(env, 1500*time.Millisecond)
	now := time.Unix(2000, 0)
	dl, ok := parseDeadline(env, now)
	if !ok {
		t.Fatal("stamped deadline did not parse")
	}
	if got := dl.Sub(now); got != 1500*time.Millisecond {
		t.Fatalf("budget = %v, want 1.5s", got)
	}
	// Re-stamping replaces, never accumulates elements.
	stampDeadline(env, 200*time.Millisecond)
	if n := len(env.All(deadlineElem)); n != 1 {
		t.Fatalf("re-stamp left %d Deadline elements, want 1", n)
	}
	dl, _ = parseDeadline(env, now)
	if got := dl.Sub(now); got != 200*time.Millisecond {
		t.Fatalf("re-stamped budget = %v, want 200ms", got)
	}
	if _, ok := parseDeadline(xmlutil.NewNode("Envelope"), now); ok {
		t.Fatal("unstamped envelope parsed a deadline")
	}
}

// TestExpiredOnArrivalRejected hand-crafts an envelope whose budget is
// already spent and posts it raw: the server must refuse it with an
// overload fault before the handler runs.
func TestExpiredOnArrivalRejected(t *testing.T) {
	srv, cli := echoServer(t)
	tel := telemetry.New("site")
	srv.SetTelemetry(tel)
	var ran int
	srv.RegisterCtx("Echo", "Slow", func(context.Context, *telemetry.Span, *xmlutil.Node) (*xmlutil.Node, error) {
		ran++
		return nil, nil
	})

	env := xmlutil.NewNode("Envelope")
	env.Elem("Operation", "Slow")
	env.Elem("Body")
	stampDeadline(env, -5*time.Millisecond)
	out, err := cli.post(context.Background(), srv.ServiceURL("Echo"), env, time.Second)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	f := out.First("Fault")
	if f == nil {
		t.Fatalf("expected overload fault, got %s", out)
	}
	if f.AttrOr("code", "") != "unavailable" || f.AttrOr("reason", "") != "expired" {
		t.Fatalf("fault attrs = code=%q reason=%q, want unavailable/expired",
			f.AttrOr("code", ""), f.AttrOr("reason", ""))
	}
	if ran != 0 {
		t.Fatal("expired request executed")
	}
	got := tel.Counter("glare_server_expired_on_arrival_total",
		telemetry.L("service", "Echo"), telemetry.L("op", "Slow")).Value()
	if got != 1 {
		t.Fatalf("expired_on_arrival_total = %d, want 1", got)
	}
}

// TestExpiredDeadlineNeverHitsWire: a caller whose context is already
// expired is refused locally, before any network traffic.
func TestExpiredDeadlineNeverHitsWire(t *testing.T) {
	srv, cli := echoServer(t)
	inj := faultinject.New(1)
	cli.WrapTransport(inj.Wrap)
	dest := destOf(srv.BaseURL())

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	_, err := cli.CallCtx(ctx, nil, srv.ServiceURL("Echo"), "Say", xmlutil.NewNode("Msg", "hi"))
	var u *Unavailable
	if !errors.As(err, &u) || u.Reason != "deadline" {
		t.Fatalf("expected Unavailable/deadline, got %v", err)
	}
	if st := inj.Stats(dest); st.Passed+st.Dropped != 0 {
		t.Fatalf("expired call generated traffic: %+v", st)
	}
}

// TestServerOverloadRejectMapsToUnavailable drives a site into shedding
// (bulk limit 1, no queue) and checks the client surfaces the refusal as
// a non-retried Unavailable with a "server-" reason.
func TestServerOverloadRejectMapsToUnavailable(t *testing.T) {
	srv, cli := echoServer(t)
	tel := telemetry.New("caller")
	cli.SetTelemetry(tel)
	cli.SetRetryPolicy(fastRetry(4))
	srv.SetAdmission(NewAdmission(AdmissionConfig{
		Bulk: ClassLimits{Limit: 1, MaxLimit: 1, QueueDepth: 0},
	}, nil))

	// StoreStatus classifies as bulk; block its only slot.
	hold := make(chan struct{})
	entered := make(chan struct{})
	srv.RegisterCtx("Echo", "StoreStatus", func(context.Context, *telemetry.Span, *xmlutil.Node) (*xmlutil.Node, error) {
		close(entered)
		<-hold
		return nil, nil
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = cli.Call(srv.ServiceURL("Echo"), "StoreStatus", nil)
	}()
	<-entered

	_, err := cli.Call(srv.ServiceURL("Echo"), "StoreStatus", nil)
	close(hold)
	wg.Wait()
	var u *Unavailable
	if !errors.As(err, &u) {
		t.Fatalf("expected Unavailable, got %v", err)
	}
	if u.Reason != "server-shed" {
		t.Fatalf("reason = %q, want server-shed", u.Reason)
	}
	if !IsOverloadReject(err) {
		t.Fatal("IsOverloadReject = false")
	}
	if n := tel.Counter("glare_transport_retries_total", telemetry.L("op", "StoreStatus")).Value(); n != 0 {
		t.Fatalf("overload reject was retried %d times", n)
	}
	if n := tel.Counter("glare_transport_server_rejects_total",
		telemetry.L("op", "StoreStatus"), telemetry.L("reason", "shed")).Value(); n != 1 {
		t.Fatalf("server_rejects_total = %d, want 1", n)
	}
}

// TestRetryStopsWhenBudgetCannotCoverBackoff is the satellite-fix
// regression: once the remaining deadline cannot cover the next backoff,
// the call abandons immediately instead of sleeping into certain failure,
// and no further RetryBudget token is burned.
func TestRetryStopsWhenBudgetCannotCoverBackoff(t *testing.T) {
	srv, cli := echoServer(t)
	tel := telemetry.New("caller")
	cli.SetTelemetry(tel)
	cli.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: 200 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2})
	budget := NewRetryBudget(20, 0.1)
	cli.SetRetryBudget(budget)

	inj := faultinject.New(7)
	cli.WrapTransport(inj.Wrap)
	inj.Drop(destOf(srv.BaseURL()))

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cli.CallCtx(ctx, nil, srv.ServiceURL("Echo"), "Say", xmlutil.NewNode("Msg", "hi"))
	elapsed := time.Since(start)
	var u *Unavailable
	if !errors.As(err, &u) || u.Reason != "deadline" {
		t.Fatalf("expected Unavailable/deadline, got %v", err)
	}
	// Attempt 1 fails fast, one 200ms backoff, attempt 2 fails fast, the
	// 400ms backoff exceeds the ~50ms remainder: abandon. Well under the
	// ~850ms a deadline-blind loop would burn.
	if elapsed > 600*time.Millisecond {
		t.Fatalf("call took %v; backoff ignored the deadline", elapsed)
	}
	if n := tel.Counter("glare_transport_retries_total", telemetry.L("op", "Say")).Value(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
	if n := tel.Counter("glare_transport_deadline_abandoned_total", telemetry.L("op", "Say")).Value(); n != 1 {
		t.Fatalf("deadline_abandoned = %d, want 1", n)
	}
	if got := budget.tokens; got != 19 {
		t.Fatalf("budget tokens = %v, want 19 (abandonment must not withdraw)", got)
	}
}

// TestBreakerRefusalDoesNotBurnRetryBudget is the other satellite-fix
// regression: an open breaker's local refusal is not a network repair
// attempt and must leave the RetryBudget untouched.
func TestBreakerRefusalDoesNotBurnRetryBudget(t *testing.T) {
	srv, cli := echoServer(t)
	tel := telemetry.New("caller")
	cli.SetTelemetry(tel)
	cli.SetRetryPolicy(fastRetry(4))
	budget := NewRetryBudget(20, 0.1)
	cli.SetRetryBudget(budget)
	cli.SetBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour})

	inj := faultinject.New(7)
	cli.WrapTransport(inj.Wrap)
	dest := destOf(srv.BaseURL())
	inj.Drop(dest)

	_, err := cli.Call(srv.ServiceURL("Echo"), "Say", xmlutil.NewNode("Msg", "hi"))
	var u *Unavailable
	if !errors.As(err, &u) || u.Reason != "breaker-open" {
		t.Fatalf("expected breaker-open, got %v", err)
	}
	// Attempt 1 tripped the breaker; attempt 2 was refused locally before
	// the retry token was withdrawn.
	if got := inj.Stats(dest).Dropped; got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if got := budget.tokens; got != 20 {
		t.Fatalf("budget tokens = %v, want 20 (refusal burned a token)", got)
	}
	if n := tel.Counter("glare_transport_retries_total", telemetry.L("op", "Say")).Value(); n != 0 {
		t.Fatalf("retries = %d, want 0", n)
	}
	if n := tel.Counter("glare_transport_breaker_rejected_total", telemetry.L("dest", dest)).Value(); n != 1 {
		t.Fatalf("breaker_rejected = %d, want 1", n)
	}
}

// TestPropagatedBudgetShrinksMonotonically is the multi-hop property
// test: a resolve-style chain of forwarding sites must observe a strictly
// decreasing budget at every hop, for any pattern of per-hop delays.
func TestPropagatedBudgetShrinksMonotonically(t *testing.T) {
	const hops = 5
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		cli := NewClient(nil)

		var mu sync.Mutex
		var budgets []time.Duration
		servers := make([]*Server, hops)
		for i := hops - 1; i >= 0; i-- {
			srv := NewServer()
			delay := time.Duration(1+rng.Intn(4)) * time.Millisecond
			next := ""
			if i < hops-1 {
				next = servers[i+1].ServiceURL("Chain")
			}
			srv.RegisterCtx("Chain", "Resolve", func(ctx context.Context, _ *telemetry.Span, _ *xmlutil.Node) (*xmlutil.Node, error) {
				dl, ok := ctx.Deadline()
				if !ok {
					return nil, fmt.Errorf("hop lost the deadline")
				}
				mu.Lock()
				budgets = append(budgets, time.Until(dl))
				mu.Unlock()
				time.Sleep(delay)
				if next == "" {
					return xmlutil.NewNode("Done"), nil
				}
				return cli.CallCtx(ctx, nil, next, "Resolve", nil)
			})
			if err := srv.Start("127.0.0.1:0", nil); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			servers[i] = srv
		}

		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if _, err := cli.CallCtx(ctx, nil, servers[0].ServiceURL("Chain"), "Resolve", nil); err != nil {
			t.Fatalf("seed %d: chain call: %v", seed, err)
		}
		cancel()
		if len(budgets) != hops {
			t.Fatalf("seed %d: %d hops observed, want %d", seed, len(budgets), hops)
		}
		for i := 1; i < len(budgets); i++ {
			if budgets[i] >= budgets[i-1] {
				t.Fatalf("seed %d: budget grew across hop %d: %v -> %v (chain %v)",
					seed, i, budgets[i-1], budgets[i], budgets)
			}
		}
		budgets = nil
	}
}
