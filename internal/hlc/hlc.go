// Package hlc implements hybrid logical clocks for cross-site ordering.
//
// Every newest-wins comparison in GLARE — registry anti-entropy, replication
// tombstones, blob location tables — used to compare raw per-site wall-clock
// reads. Autonomous sites do not share a wall clock: a few minutes of skew
// can make a genuinely newer write look older, silently dropping an acked
// registration or resurrecting a deleted deployment. A hybrid logical clock
// (Kulkarni et al.) fixes this by combining a physical component (close to
// the site's own clock) with a logical component that preserves causality:
// any event that happens after a message is received is stamped strictly
// after every stamp carried by that message, regardless of skew.
//
// This package uses the compact encoding from §6.2 of the HLC paper: the
// logical component is folded into the low bits of the physical value by
// bumping the timestamp one nanosecond per causally-ordered event while the
// physical clock stands still. Stamps therefore remain ordinary time.Time
// values — every existing wire format (RFC3339Nano ref-properties), journal
// record and comparison keeps working — while gaining the HLC ordering
// guarantee. The encoding is safe here because the virtual clock advances in
// millisecond-or-larger steps (1e6 ns ≫ the handful of 1 ns bumps issued
// between advances) and real clocks advance far faster than stamp rates.
//
// Stamps issued by an HLC are for ordering only. They may lead the site's
// physical clock by up to the largest observed peer skew, so they must never
// be compared against the local clock for expiry decisions (lease validity,
// termination sweeps); those stay on the site's own physical clock.
package hlc

import (
	"sync"
	"time"

	"glare/internal/simclock"
)

// Clock is a hybrid logical clock bound to one site. It implements
// simclock.Clock so it can be handed to components that only need Now;
// Sleep and After delegate to the underlying physical clock.
type Clock struct {
	mu      sync.Mutex
	site    string
	phys    simclock.Clock
	wall    time.Time                // last issued/merged HLC instant
	logical uint64                   // 1 ns bumps since the physical clock last led
	peers   map[string]time.Duration // last observed offset per peer site
	bound   time.Duration            // |offset| beyond which onSkew fires
	onSkew  func(peer string, offset time.Duration)
}

// New creates a hybrid logical clock for the named site on top of its
// physical clock (which may itself be a skewed fault-injection view).
func New(site string, phys simclock.Clock) *Clock {
	return &Clock{
		site:  site,
		phys:  phys,
		peers: make(map[string]time.Duration),
	}
}

// Site returns the site name used as the final tiebreak in total orders.
func (c *Clock) Site() string { return c.site }

// Now issues the next HLC stamp: the physical clock when it leads, otherwise
// the previous stamp advanced by one nanosecond. Stamps are strictly
// monotonic per clock.
func (c *Clock) Now() time.Time {
	pt := c.phys.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if pt.After(c.wall) {
		c.wall = pt
		c.logical = 0
	} else {
		c.wall = c.wall.Add(time.Nanosecond)
		c.logical++
	}
	return c.wall
}

// Sleep delegates to the physical clock.
func (c *Clock) Sleep(d time.Duration) { c.phys.Sleep(d) }

// After delegates to the physical clock.
func (c *Clock) After(d time.Duration) <-chan time.Time { return c.phys.After(d) }

// Observe merges a stamp received from a peer site into the clock, so every
// stamp issued afterwards orders strictly after the message that carried it.
// It returns the peer's apparent clock offset (remote minus local physical
// time) and fires the skew alarm when that offset exceeds the configured
// bound. A zero remote stamp (peer predates HLC piggybacking) is ignored.
func (c *Clock) Observe(peer string, remote time.Time) time.Duration {
	if remote.IsZero() {
		return 0
	}
	pt := c.phys.Now()
	off := remote.Sub(pt)
	c.mu.Lock()
	if remote.After(c.wall) {
		c.wall = remote
		c.logical = 0
	}
	if peer != "" {
		c.peers[peer] = off
	}
	bound, alarm := c.bound, c.onSkew
	c.mu.Unlock()
	if alarm != nil && bound > 0 && (off > bound || off < -bound) {
		alarm(peer, off)
	}
	return off
}

// Logical returns the count of logical (1 ns) bumps issued since the
// physical clock last led — a direct gauge of how hard causality ordering
// is working against the physical clock.
func (c *Clock) Logical() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logical
}

// SetSkewBound arms the skew alarm: Observe calls the OnSkew callback when a
// peer's apparent offset exceeds the bound in either direction.
func (c *Clock) SetSkewBound(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bound = d
}

// OnSkew installs the alarm callback. The callback runs on the Observe
// caller's goroutine and must not call back into the clock under its own
// locks.
func (c *Clock) OnSkew(fn func(peer string, offset time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onSkew = fn
}

// MaxPeerOffset returns the peer with the largest absolute observed offset.
// The zero values mean no peer has been observed yet.
func (c *Clock) MaxPeerOffset() (peer string, offset time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p, off := range c.peers {
		a := off
		if a < 0 {
			a = -a
		}
		m := offset
		if m < 0 {
			m = -m
		}
		if a > m || peer == "" {
			peer, offset = p, off
		}
	}
	return peer, offset
}

// Less reports whether stamp (t1, site1) orders strictly before (t2, site2)
// in the grid-wide total order: HLC instant first, site name as the
// deterministic tiebreak for equal instants.
func Less(t1 time.Time, site1 string, t2 time.Time, site2 string) bool {
	if !t1.Equal(t2) {
		return t1.Before(t2)
	}
	return site1 < site2
}

// Newer reports whether stamp (t1, site1) orders strictly after (t2, site2).
func Newer(t1 time.Time, site1 string, t2 time.Time, site2 string) bool {
	return Less(t2, site2, t1, site1)
}
