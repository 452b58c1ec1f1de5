package transport

import (
	"errors"
	"testing"
	"time"

	"glare/internal/faultinject"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

// fastRetry is a retry policy with millisecond backoffs so tests that
// exhaust attempts stay quick.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Multiplier:  2,
	}
}

func TestDeadSiteIsUnavailableNotFault(t *testing.T) {
	srv, cli := echoServer(t)
	addr := srv.ServiceURL("Echo")
	srv.Close()

	_, err := cli.Call(addr, "Say", xmlutil.NewNode("Msg", "hello"))
	if err == nil {
		t.Fatal("expected error calling a closed server")
	}
	if !IsUnavailable(err) {
		t.Fatalf("expected Unavailable, got %T: %v", err, err)
	}
	if IsFault(err) {
		t.Fatalf("dead site must not classify as Fault: %v", err)
	}
	var u *Unavailable
	if !errors.As(err, &u) {
		t.Fatal("errors.As failed")
	}
	if u.Reason != "connection" && u.Reason != "timeout" {
		t.Fatalf("reason = %q", u.Reason)
	}
	if u.Operation != "Say" {
		t.Fatalf("operation = %q", u.Operation)
	}
}

func TestFaultIsNeverRetried(t *testing.T) {
	srv, cli := echoServer(t)
	tel := telemetry.New("caller")
	cli.SetTelemetry(tel)
	cli.SetRetryPolicy(fastRetry(4))

	// Nil body makes the Echo handler fault: the site answered, so the
	// call must not be repeated.
	_, err := cli.Call(srv.ServiceURL("Echo"), "Say", nil)
	if err == nil || !IsFault(err) {
		t.Fatalf("expected fault, got %v", err)
	}
	if IsUnavailable(err) {
		t.Fatalf("fault must not classify as Unavailable: %v", err)
	}
	if n := tel.Counter("glare_transport_retries_total", telemetry.L("op", "Say")).Value(); n != 0 {
		t.Fatalf("fault was retried %d times", n)
	}
}

func TestRetryRecoversTransientDrops(t *testing.T) {
	srv, cli := echoServer(t)
	tel := telemetry.New("caller")
	cli.SetTelemetry(tel)
	cli.SetRetryPolicy(fastRetry(4))

	inj := faultinject.New(7)
	cli.WrapTransport(inj.Wrap)
	dest := destOf(srv.BaseURL())
	inj.Set(dest, faultinject.Rule{Mode: faultinject.Drop, Remaining: 2})

	resp, err := cli.Call(srv.ServiceURL("Echo"), "Say", xmlutil.NewNode("Msg", "hi"))
	if err != nil {
		t.Fatalf("call should recover after two dropped attempts: %v", err)
	}
	if resp.Text != "hi" {
		t.Fatalf("resp = %s", resp)
	}
	if got := inj.Stats(dest).Dropped; got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if n := tel.Counter("glare_transport_retries_total", telemetry.L("op", "Say")).Value(); n != 2 {
		t.Fatalf("retries = %d, want 2", n)
	}
	if n := tel.Counter("glare_transport_unavailable_total", telemetry.L("op", "Say")).Value(); n != 0 {
		t.Fatalf("unavailable = %d, want 0", n)
	}
}

func TestRetryExhaustionCountsUnavailable(t *testing.T) {
	srv, cli := echoServer(t)
	tel := telemetry.New("caller")
	cli.SetTelemetry(tel)
	cli.SetRetryPolicy(fastRetry(3))

	inj := faultinject.New(7)
	cli.WrapTransport(inj.Wrap)
	inj.Drop(destOf(srv.BaseURL()))

	_, err := cli.Call(srv.ServiceURL("Echo"), "Say", xmlutil.NewNode("Msg", "hi"))
	if !IsUnavailable(err) {
		t.Fatalf("expected Unavailable, got %v", err)
	}
	if n := tel.Counter("glare_transport_retries_total", telemetry.L("op", "Say")).Value(); n != 2 {
		t.Fatalf("retries = %d, want 2", n)
	}
	if n := tel.Counter("glare_transport_unavailable_total", telemetry.L("op", "Say")).Value(); n != 1 {
		t.Fatalf("unavailable = %d, want 1", n)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	srv, cli := echoServer(t)
	tel := telemetry.New("caller")
	cli.SetTelemetry(tel)
	cli.SetRetryPolicy(fastRetry(5))
	cli.SetRetryBudget(NewRetryBudget(1, 0.1)) // one retry, then dry

	inj := faultinject.New(7)
	cli.WrapTransport(inj.Wrap)
	inj.Drop(destOf(srv.BaseURL()))

	_, err := cli.Call(srv.ServiceURL("Echo"), "Say", xmlutil.NewNode("Msg", "hi"))
	var u *Unavailable
	if !errors.As(err, &u) {
		t.Fatalf("expected Unavailable, got %v", err)
	}
	if u.Reason != "retry-budget" {
		t.Fatalf("reason = %q, want retry-budget", u.Reason)
	}
	if n := tel.Counter("glare_transport_retries_total", telemetry.L("op", "Say")).Value(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
	if n := tel.Counter("glare_transport_retry_budget_exhausted_total").Value(); n != 1 {
		t.Fatalf("budget exhausted = %d, want 1", n)
	}
}

// TestBreakerStateMachine walks the whole closed → open → half-open cycle
// with a deterministic fault injector and an injected clock, verifying
// that an open breaker fast-fails without touching the network.
func TestBreakerStateMachine(t *testing.T) {
	srv, cli := echoServer(t)
	tel := telemetry.New("caller")
	cli.SetTelemetry(tel)

	now := time.Unix(1000, 0)
	cli.SetBreaker(BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         time.Second,
		Now:              func() time.Time { return now },
	})

	inj := faultinject.New(42)
	cli.WrapTransport(inj.Wrap)
	addr := srv.ServiceURL("Echo")
	dest := destOf(srv.BaseURL())
	call := func() error {
		_, err := cli.Call(addr, "Say", xmlutil.NewNode("Msg", "hi"))
		return err
	}

	// Three consecutive failures trip the breaker (no retry policy, so
	// each Call is exactly one attempt).
	inj.Drop(dest)
	for i := 0; i < 3; i++ {
		if err := call(); !IsUnavailable(err) {
			t.Fatalf("call %d: expected Unavailable, got %v", i, err)
		}
	}
	if st := cli.BreakerState(addr); st != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", st)
	}
	if n := tel.Counter("glare_transport_breaker_open_total", telemetry.L("dest", dest)).Value(); n != 1 {
		t.Fatalf("breaker_open_total = %d, want 1", n)
	}

	// While open, calls are rejected before reaching the network: the
	// injector sees no new traffic.
	err := call()
	var u *Unavailable
	if !errors.As(err, &u) || u.Reason != "breaker-open" {
		t.Fatalf("expected breaker-open rejection, got %v", err)
	}
	if got := inj.Stats(dest).Dropped; got != 3 {
		t.Fatalf("dropped = %d, want 3 (rejection must not hit the wire)", got)
	}
	if n := tel.Counter("glare_transport_breaker_rejected_total", telemetry.L("dest", dest)).Value(); n != 1 {
		t.Fatalf("breaker_rejected_total = %d, want 1", n)
	}

	// After the cooldown a single probe is admitted; its failure re-opens
	// the breaker immediately.
	now = now.Add(2 * time.Second)
	if err := call(); !IsUnavailable(err) {
		t.Fatalf("probe should fail while still dropped: %v", err)
	}
	if got := inj.Stats(dest).Dropped; got != 4 {
		t.Fatalf("dropped = %d, want 4 (exactly one probe)", got)
	}
	if st := cli.BreakerState(addr); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}

	// Heal the destination; after another cooldown the probe succeeds and
	// the breaker closes.
	now = now.Add(2 * time.Second)
	inj.Restore(dest)
	if err := call(); err != nil {
		t.Fatalf("probe after restore: %v", err)
	}
	if st := cli.BreakerState(addr); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	if err := call(); err != nil {
		t.Fatalf("closed breaker should pass traffic: %v", err)
	}
}

func TestProbeUsesShortTimeout(t *testing.T) {
	srv, cli := echoServer(t)

	inj := faultinject.New(42)
	cli.WrapTransport(inj.Wrap)
	inj.BlackHole(destOf(srv.BaseURL()))

	start := time.Now()
	_, err := cli.Probe(srv.ServiceURL("Echo"), "Say", xmlutil.NewNode("Msg", "hi"), 50*time.Millisecond)
	elapsed := time.Since(start)
	if !IsUnavailable(err) {
		t.Fatalf("expected Unavailable, got %v", err)
	}
	var u *Unavailable
	if errors.As(err, &u); u.Reason != "timeout" {
		t.Fatalf("reason = %q, want timeout", u.Reason)
	}
	// Far below the client's own 10s call timeout.
	if elapsed > 2*time.Second {
		t.Fatalf("probe took %v; the independent timeout did not apply", elapsed)
	}
}

func TestProbeDoesNotRetry(t *testing.T) {
	srv, cli := echoServer(t)
	tel := telemetry.New("caller")
	cli.SetTelemetry(tel)
	cli.SetRetryPolicy(fastRetry(4))

	inj := faultinject.New(42)
	cli.WrapTransport(inj.Wrap)
	dest := destOf(srv.BaseURL())
	inj.Drop(dest)

	if _, err := cli.Probe(srv.ServiceURL("Echo"), "Say", xmlutil.NewNode("Msg", "hi"), 50*time.Millisecond); !IsUnavailable(err) {
		t.Fatalf("expected Unavailable, got %v", err)
	}
	if got := inj.Stats(dest).Dropped; got != 1 {
		t.Fatalf("dropped = %d, want 1 (probes are single-attempt)", got)
	}
	if n := tel.Counter("glare_transport_retries_total", telemetry.L("op", "Say")).Value(); n != 0 {
		t.Fatalf("probe was retried %d times", n)
	}
}

func TestDestOf(t *testing.T) {
	cases := map[string]string{
		"http://127.0.0.1:4512/wsrf/services/GLARE":  "127.0.0.1:4512",
		"https://127.0.0.1:4512/wsrf/services/GLARE": "127.0.0.1:4512",
		"http://127.0.0.1:4512":                      "127.0.0.1:4512",
		"127.0.0.1:4512/metrics":                     "127.0.0.1:4512",
	}
	for in, want := range cases {
		if got := destOf(in); got != want {
			t.Fatalf("destOf(%q) = %q, want %q", in, got, want)
		}
	}
}
