package superpeer

import (
	"testing"
	"time"

	"glare/internal/faultinject"
	"glare/internal/transport"
	"glare/internal/wsrf"
)

// TestPingUsesShortTimeout verifies a liveness probe gives up on a hung
// site long before the client's regular call timeout would.
func TestPingUsesShortTimeout(t *testing.T) {
	h := newHarness(t, 2)
	cli := transport.NewClient(nil) // 10s regular call timeout
	inj := faultinject.New(42)
	cli.WrapTransport(inj.Wrap)
	a := NewAgent(h.infos[0], cli, wsrf.NewBroker(nil))
	a.pingTimeout = 50 * time.Millisecond

	dest := destOfURL(h.infos[1].BaseURL)
	inj.BlackHole(dest)

	start := time.Now()
	if a.Ping(h.infos[1]) {
		t.Fatal("ping of a black-holed site reported alive")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("ping took %v; the independent ping timeout did not apply", elapsed)
	}
}

// TestPingSharesBreakerState verifies an open breaker makes later pings
// fail instantly without re-probing the dead site.
func TestPingSharesBreakerState(t *testing.T) {
	h := newHarness(t, 2)
	cli := transport.NewClient(nil)
	cli.SetBreaker(transport.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute})
	inj := faultinject.New(42)
	cli.WrapTransport(inj.Wrap)
	a := NewAgent(h.infos[0], cli, wsrf.NewBroker(nil))
	a.pingTimeout = 50 * time.Millisecond

	dest := destOfURL(h.infos[1].BaseURL)
	inj.BlackHole(dest)

	if a.Ping(h.infos[1]) {
		t.Fatal("first ping should fail")
	}
	if got := inj.Stats(dest).BlackHoled; got != 1 {
		t.Fatalf("black-holed = %d, want 1", got)
	}
	if st := cli.BreakerState(h.infos[1].PeerURL()); st != transport.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}

	// The second ping is rejected by the breaker before touching the
	// network: the injector sees no new traffic.
	start := time.Now()
	if a.Ping(h.infos[1]) {
		t.Fatal("second ping should fail")
	}
	if elapsed := time.Since(start); elapsed > 25*time.Millisecond {
		t.Fatalf("breaker-rejected ping took %v; expected instant failure", elapsed)
	}
	if got := inj.Stats(dest).BlackHoled; got != 1 {
		t.Fatalf("black-holed = %d, want 1 (breaker must absorb the re-probe)", got)
	}
}

// destOfURL strips the scheme off a base URL, yielding the host:port key
// the injector matches on.
func destOfURL(base string) string {
	for i := 0; i+2 < len(base); i++ {
		if base[i] == ':' && base[i+1] == '/' && base[i+2] == '/' {
			return base[i+3:]
		}
	}
	return base
}
