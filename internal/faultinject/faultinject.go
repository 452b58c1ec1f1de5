// Package faultinject is a deterministic chaos harness for the transport
// layer. An Injector wraps an http.RoundTripper and, per destination
// (host:port), drops requests with a synthetic connection error, delays
// them, or black-holes them until the caller's timeout fires — so every
// robustness behavior (retries, circuit breakers, stale-cache
// degradation, takeover) is testable in-process without real network
// flakiness.
//
// Decisions are driven by a seeded RNG taken under the injector's lock,
// so a fixed seed and a fixed request sequence reproduce the same fault
// pattern run after run. Rules with Prob 0 (always fire) are fully
// deterministic regardless of request ordering.
//
// Install on a client with:
//
//	inj := faultinject.New(42)
//	client.WrapTransport(inj.Wrap)
//	inj.BlackHole("127.0.0.1:45123")
package faultinject

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Mode is what happens to a matched request.
type Mode int

const (
	// Pass lets the request through untouched.
	Pass Mode = iota
	// Drop fails the request immediately, like a refused connection.
	Drop
	// Delay holds the request for Rule.Delay, then passes it through.
	Delay
	// BlackHole never answers; the request hangs until its context
	// (the caller's timeout) expires.
	BlackHole
)

// String renders the mode name.
func (m Mode) String() string {
	switch m {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case BlackHole:
		return "blackhole"
	}
	return "pass"
}

// Rule describes the fault applied to one destination. The zero Rule
// passes everything.
type Rule struct {
	Mode Mode
	// Delay is how long Mode Delay holds a request.
	Delay time.Duration
	// Prob is the per-request probability the rule fires; 0 means always.
	Prob float64
	// Remaining, when > 0, disarms the rule after that many injections
	// (so "fail the first N requests" scenarios are expressible).
	Remaining int
}

// Stats counts one destination's outcomes.
type Stats struct {
	Passed     uint64
	Dropped    uint64
	Delayed    uint64
	BlackHoled uint64
}

// Error is the synthetic transport error returned for injected failures.
type Error struct {
	Dest string
	Mode Mode
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("faultinject: %s %s", e.Mode, e.Dest) }

// Wildcard matches any destination without its own rule.
const Wildcard = "*"

// Injector decides per request whether to inject a fault.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]*Rule
	stats map[string]*Stats
	// partA/partB hold the two halves of an active network partition
	// (host:port sets); nil when the network is whole. Partition decisions
	// need the request's SOURCE as well as its destination, which is why
	// per-site clients wrap with WrapSource.
	partA map[string]bool
	partB map[string]bool
}

// New creates an injector whose probabilistic decisions derive from seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string]*Rule),
		stats: make(map[string]*Stats),
	}
}

// Set installs (or replaces) the rule for dest (host:port, or Wildcard).
func (in *Injector) Set(dest string, r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[dest] = &r
}

// Drop makes every request to dest fail immediately.
func (in *Injector) Drop(dest string) { in.Set(dest, Rule{Mode: Drop}) }

// BlackHole makes every request to dest hang until the caller's timeout.
func (in *Injector) BlackHole(dest string) { in.Set(dest, Rule{Mode: BlackHole}) }

// Delay holds every request to dest for d before passing it through.
func (in *Injector) Delay(dest string, d time.Duration) { in.Set(dest, Rule{Mode: Delay, Delay: d}) }

// Restore removes dest's rule; traffic flows normally again.
func (in *Injector) Restore(dest string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.rules, dest)
}

// Clear removes every rule.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = make(map[string]*Rule)
}

// Partition splits the network into two halves: every request whose source
// is in one half and whose destination is in the other is dropped, in both
// directions, while traffic within a half flows normally. groupA and
// groupB are host:port sets; a source not in either half (e.g. an
// out-of-band admin client wrapped without a source) is unaffected.
// Partition replaces any previous partition; it composes with per-dest
// rules, which still apply to traffic the partition lets through.
func (in *Injector) Partition(groupA, groupB []string) {
	a := make(map[string]bool, len(groupA))
	for _, h := range groupA {
		a[h] = true
	}
	b := make(map[string]bool, len(groupB))
	for _, h := range groupB {
		b[h] = true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.partA, in.partB = a, b
}

// Heal removes the active partition; cross-half traffic flows again.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.partA, in.partB = nil, nil
}

// severed reports whether a source→dest request is cut by the active
// partition; callers hold in.mu.
func (in *Injector) severed(source, dest string) bool {
	if in.partA == nil || source == "" {
		return false
	}
	return (in.partA[source] && in.partB[dest]) || (in.partB[source] && in.partA[dest])
}

// Stats returns a snapshot of dest's outcome counters.
func (in *Injector) Stats(dest string) Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	if s := in.stats[dest]; s != nil {
		return *s
	}
	return Stats{}
}

// decide resolves one request's fate, consuming an RNG draw only for
// probabilistic rules and counting down Remaining. source is the caller's
// own host:port ("" for clients wrapped without a source identity) and
// matters only to partitions.
func (in *Injector) decide(source, dest string) (Mode, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.stats[dest]
	if st == nil {
		st = &Stats{}
		in.stats[dest] = st
	}
	if in.severed(source, dest) {
		st.Dropped++
		return Drop, 0
	}
	key := dest
	r := in.rules[key]
	if r == nil {
		key = Wildcard
		r = in.rules[key]
	}
	if r == nil || r.Mode == Pass {
		st.Passed++
		return Pass, 0
	}
	if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
		st.Passed++
		return Pass, 0
	}
	if r.Remaining > 0 {
		r.Remaining--
		if r.Remaining == 0 {
			delete(in.rules, key)
		}
	}
	switch r.Mode {
	case Drop:
		st.Dropped++
	case Delay:
		st.Delayed++
	case BlackHole:
		st.BlackHoled++
	}
	return r.Mode, r.Delay
}

// Wrap layers the injector over an http.RoundTripper; pass the result to
// the transport client's WrapTransport. Requests wrapped this way have no
// source identity, so partitions never sever them (admin clients see the
// whole VO); use WrapSource for clients that live on a site.
func (in *Injector) Wrap(base http.RoundTripper) http.RoundTripper {
	return in.wrap("", base)
}

// WrapSource returns a WrapTransport-compatible wrapper whose requests
// carry the given source host:port, so symmetric Partition rules can
// decide based on which side of the split the CALLER is on, not only the
// destination.
func (in *Injector) WrapSource(source string) func(http.RoundTripper) http.RoundTripper {
	return func(base http.RoundTripper) http.RoundTripper {
		return in.wrap(source, base)
	}
}

func (in *Injector) wrap(source string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &roundTripper{in: in, source: source, base: base}
}

type roundTripper struct {
	in     *Injector
	source string
	base   http.RoundTripper
}

// RoundTrip applies the destination's rule before (or instead of) the
// real exchange.
func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	dest := req.URL.Host
	mode, delay := rt.in.decide(rt.source, dest)
	switch mode {
	case Drop:
		return nil, &Error{Dest: dest, Mode: Drop}
	case BlackHole:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case Delay:
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return rt.base.RoundTrip(req)
}
