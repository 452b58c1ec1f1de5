// Package cache implements GLARE's resource cache: discovered remote
// activity types and deployments are "optionally cached locally", and the
// RDM Cache Refresher "updates cached resources if and when they change on
// the source Grid site. Outdated resources are discarded automatically."
//
// Change detection uses the LastUpdateTime (LUT) reference property of the
// source EPR (paper Fig. 6): "each time it changes, cached activity
// deployment resources are revived."
//
// GLARE uses a two-level cache: one instance on every normal Grid site and
// one on each super-peer; both are this type.
package cache

import (
	"errors"
	"sync"
	"time"

	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

// Entry is one cached remote resource.
type Entry struct {
	Key     string
	Source  epr.EPR // where the resource lives; carries LastUpdateTime
	Doc     *xmlutil.Node
	Fetched time.Time
}

// Stats counts cache effectiveness for the experiments.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Revived   uint64
	Discarded uint64
	// Stale counts entries served past their TTL through GetStale while
	// the network could not refresh them (degraded resolution).
	Stale uint64
}

// Cache is a keyed resource cache with TTL and LUT-based revival.
type Cache struct {
	mu       sync.Mutex
	clock    simclock.Clock
	ttl      time.Duration
	staleFor time.Duration
	entries  map[string]*Entry
	stats    Stats

	// Telemetry mirrors of the stats counters; nil until Instrument is
	// called (a nil counter is a no-op).
	hits, misses, revived, discarded, staleSrv *telemetry.Counter
}

// DefaultTTL bounds how long an entry may serve without refresh.
const DefaultTTL = 5 * time.Minute

// New creates a cache; ttl <= 0 uses DefaultTTL.
func New(clock simclock.Clock, ttl time.Duration) *Cache {
	if clock == nil {
		clock = simclock.Real
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Cache{clock: clock, ttl: ttl, entries: make(map[string]*Entry)}
}

// Instrument mirrors the cache's effectiveness counters, stale-served
// included, onto telemetry instruments so they appear on the site's
// /metrics exposition. Call before the cache is shared across goroutines.
func (c *Cache) Instrument(hits, misses, revived, discarded, stale *telemetry.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.revived, c.discarded, c.staleSrv = hits, misses, revived, discarded, stale
}

// SetStaleFor retains expired entries for d past their TTL so degraded
// resolution can fall back on them: Get still misses on an expired entry
// (it will not silently serve stale data), but GetStale serves it while
// the source site is unreachable. d <= 0 (the default) disables retention
// and restores eager eviction on expiry.
func (c *Cache) SetStaleFor(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.staleFor = d
}

// Put stores (or replaces) a cached resource.
func (c *Cache) Put(key string, source epr.EPR, doc *xmlutil.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = &Entry{Key: key, Source: source, Doc: doc, Fetched: c.clock.Now()}
}

// Get returns the cached document for key if present and fresh. Expired
// entries miss; they are evicted immediately unless a stale-retention
// window (SetStaleFor) keeps them reachable through GetStale.
func (c *Cache) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, expired := c.lookup(key, c.clock.Now())
	if e == nil || expired {
		c.stats.Misses++
		c.misses.Inc()
		return nil, false
	}
	c.stats.Hits++
	c.hits.Inc()
	return e, true
}

// GetStale returns the cached entry even past its TTL, as long as it is
// within the stale-retention window. It is the degraded-resolution path:
// when the source site is unreachable, an outdated answer marked as such
// beats no answer. Fresh entries count as hits; stale ones as Stale.
func (c *Cache) GetStale(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, expired := c.lookup(key, c.clock.Now())
	switch {
	case e == nil:
		c.stats.Misses++
		c.misses.Inc()
	case expired:
		c.stats.Stale++
		c.staleSrv.Inc()
	default:
		c.stats.Hits++
		c.hits.Inc()
	}
	return e, e != nil
}

// Invalidate removes one entry.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.discard(key)
	}
}

// lookup returns key's entry while some lookup can still return it, and
// whether it is past its TTL, when only GetStale may serve it. An entry
// past its TTL and, with stale retention, past TTL + staleFor too is
// discarded. Caller holds c.mu.
func (c *Cache) lookup(key string, now time.Time) (e *Entry, expired bool) {
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if age := now.Sub(e.Fetched); age <= c.ttl || c.staleFor > 0 && age <= c.ttl+c.staleFor {
		return e, age > c.ttl
	}
	c.discard(key)
	return nil, false
}

// discard drops key's entry and counts it. Caller holds c.mu.
func (c *Cache) discard(key string) {
	delete(c.entries, key)
	c.stats.Discarded++
	c.discarded.Inc()
}

// Keys returns the currently cached keys (unsorted).
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	return out
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ErrUnreachable marks a refresh whose source could not be reached. The
// entry is not discarded: it is aged past its TTL, so Get misses and
// GetStale serves it, for degraded resolution, until the stale window ends.
var ErrUnreachable = errors.New("cache: source unreachable")

// Resolver re-fetches a resource's document from its source, or fails when
// the source is gone.
type Resolver func(key string, source epr.EPR) (*xmlutil.Node, error)

// Refresh implements the Cache Refresher pass: for every cached entry whose
// source LastUpdateTime is newer than the cached one, re-fetch ("revive")
// the document and stamp it with the LUT the probe read before the fetch,
// so an update that lands in between is revived by the next pass. Entries
// whose source has disappeared are discarded; entries whose source is
// unreachable (ErrUnreachable) age into the stale window. probe fetches
// the source's current LUT cheaply. Entries no lookup can return any more
// are discarded first, without a probe.
func (c *Cache) Refresh(probe func(key string, source epr.EPR) (time.Time, error), resolve Resolver) (revived, discarded int) {
	c.mu.Lock()
	live := make([]*Entry, 0, len(c.entries))
	now := c.clock.Now()
	for key := range c.entries {
		if e, _ := c.lookup(key, now); e != nil {
			live = append(live, e)
		} else {
			discarded++
		}
	}
	c.mu.Unlock()

	for _, e := range live {
		lut, err := probe(e.Key, e.Source)
		var doc *xmlutil.Node
		if err == nil {
			if !lut.After(e.Source.LastUpdateTime) {
				continue // unchanged
			}
			doc, err = resolve(e.Key, e.Source)
		}
		c.mu.Lock()
		switch {
		case errors.Is(err, ErrUnreachable):
			// Aged once, by the pass that first finds the source gone: a
			// later pass does not extend the window, and an entry Put
			// since the snapshot is left alone.
			expired := c.clock.Now().Add(-c.ttl - time.Nanosecond)
			if c.entries[e.Key] == e && e.Fetched.After(expired) {
				aged := *e
				aged.Fetched = expired
				c.entries[e.Key] = &aged
			}
		case err != nil:
			c.discard(e.Key)
			discarded++
		default:
			fresh := e.Source
			fresh.LastUpdateTime = lut
			c.entries[e.Key] = &Entry{Key: e.Key, Source: fresh, Doc: doc, Fetched: c.clock.Now()}
			c.stats.Revived++
			c.revived.Inc()
			revived++
		}
		c.mu.Unlock()
	}
	return revived, discarded
}
