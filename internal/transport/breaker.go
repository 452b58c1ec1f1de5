package transport

import (
	"strings"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed lets calls through and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls without touching the network until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets a single probe request through; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

// String renders the state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// BreakerConfig tunes the per-destination circuit breakers of a Client.
type BreakerConfig struct {
	// FailureThreshold consecutive transport failures trip the breaker.
	// Retries count individually, so one retried call to a dead site can
	// open its breaker. Default 3.
	FailureThreshold int
	// Cooldown is how long an open breaker rejects before admitting one
	// half-open probe; the first success closes it again. Default 5s.
	Cooldown time.Duration
	// Now is the breaker's time source; nil uses time.Now. Tests inject a
	// fake to step through the cooldown deterministically.
	Now func() time.Time
}

// DefaultBreakerConfig suits intra-VO failure detection.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{FailureThreshold: 3, Cooldown: 5 * time.Second}
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// breaker is one destination's state machine.
type breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
}

// admit reports whether a call may proceed; probe marks the call as the
// half-open trial whose outcome settles the state.
func (b *breaker) admit() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, true
	default: // half-open: one probe at a time
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// onSuccess records a successful exchange; probe echoes admit's flag.
func (b *breaker) onSuccess(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures = 0
	case BreakerHalfOpen:
		if probe {
			b.probing = false
		}
		b.state = BreakerClosed
		b.failures = 0
	}
}

// onFailure records a transport failure and reports whether the breaker
// tripped open on this call.
func (b *breaker) onFailure(probe bool) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.state = BreakerOpen
			b.openedAt = b.cfg.Now()
			return true
		}
	case BreakerHalfOpen:
		if probe {
			b.probing = false
		}
		b.state = BreakerOpen
		b.openedAt = b.cfg.Now()
		return true
	}
	return false
}

// current returns the literal state (an open breaker past its cooldown
// still reports open until a call flips it to half-open).
func (b *breaker) current() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerSet keys breakers by destination host:port.
type breakerSet struct {
	cfg BreakerConfig
	mu  sync.Mutex
	m   map[string]*breaker
}

func newBreakerSet(cfg BreakerConfig) *breakerSet {
	return &breakerSet{cfg: cfg.withDefaults(), m: make(map[string]*breaker)}
}

// countOpen tallies destinations whose breaker currently sits Open — the
// sites this client refuses to call. Half-open probes do not count: the
// client is already testing recovery there.
func (s *breakerSet) countOpen() int {
	s.mu.Lock()
	breakers := make([]*breaker, 0, len(s.m))
	for _, b := range s.m {
		breakers = append(breakers, b)
	}
	s.mu.Unlock()
	n := 0
	for _, b := range breakers {
		if b.current() == BreakerOpen {
			n++
		}
	}
	return n
}

func (s *breakerSet) get(dest string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[dest]
	if b == nil {
		b = &breaker{cfg: s.cfg}
		s.m[dest] = b
	}
	return b
}

// destOf reduces a service URL to its host:port breaker key, so every
// service on one site shares one breaker — a dead container is dead for
// all its services.
func destOf(address string) string {
	rest := address
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}
