package faultinject

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"glare/internal/simclock"
)

// ClockChaos injects clock skew and drift as per-site faults. Each site
// reads time through its own simclock.Skewed view of the shared base clock;
// ClockChaos owns those views keyed by site name, so an injected skew
// survives a site restart the same way deploy chaos does — the rebuilt site
// gets the same (still-skewed) view back.
type ClockChaos struct {
	mu    sync.Mutex
	views map[string]*simclock.Skewed
}

// NewClockChaos creates an injector with every site's clock still true.
func NewClockChaos() *ClockChaos {
	return &ClockChaos{views: make(map[string]*simclock.Skewed)}
}

// View returns the named site's clock view over base, creating an
// undisplaced one on first use. The VO builder routes every site's clock
// through here so skew armed before or after a restart both take hold.
func (c *ClockChaos) View(site string, base simclock.Clock) simclock.Clock {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.views[site]
	if !ok {
		v = simclock.NewSkewed(base)
		c.views[site] = v
	}
	return v
}

// SkewSite displaces the named site's wall clock by offset (negative runs
// slow). The site must have been built through View first.
func (c *ClockChaos) SkewSite(site string, offset time.Duration) bool {
	c.mu.Lock()
	v := c.views[site]
	c.mu.Unlock()
	if v == nil {
		return false
	}
	v.SetOffset(offset)
	return true
}

// DriftSite makes the named site's clock wander at rate seconds gained per
// second (negative falls behind), on top of any fixed offset.
func (c *ClockChaos) DriftSite(site string, rate float64) bool {
	c.mu.Lock()
	v := c.views[site]
	c.mu.Unlock()
	if v == nil {
		return false
	}
	v.SetDrift(rate)
	return true
}

// Offset reports the named site's current total displacement from the base
// clock; zero for sites never skewed.
func (c *ClockChaos) Offset(site string) time.Duration {
	c.mu.Lock()
	v := c.views[site]
	c.mu.Unlock()
	if v == nil {
		return 0
	}
	return v.Offset()
}

// ScheduleSkew arms a deterministic seeded skew schedule across every view
// built so far: each site gets an offset drawn uniformly from [-max, +max]
// and a small proportional drift in the same direction, so clocks both
// disagree and keep wandering apart. It returns the offsets applied, keyed
// by site name.
func (c *ClockChaos) ScheduleSkew(seed int64, max time.Duration) map[string]time.Duration {
	c.mu.Lock()
	sites := make([]string, 0, len(c.views))
	for s := range c.views {
		sites = append(sites, s)
	}
	c.mu.Unlock()
	sort.Strings(sites) // deterministic draw order for a given view set

	rng := rand.New(rand.NewSource(seed))
	applied := make(map[string]time.Duration, len(sites))
	for _, s := range sites {
		off := time.Duration(rng.Int63n(int64(2*max+1))) - max
		c.SkewSite(s, off)
		// Drift at up to 0.1% in the offset's direction: a minute of extra
		// wander per ~17 hours of grid time, enough to keep stamps moving.
		rate := rng.Float64() * 0.001
		if off < 0 {
			rate = -rate
		}
		c.DriftSite(s, rate)
		applied[s] = off
	}
	return applied
}
