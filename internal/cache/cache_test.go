package cache

import (
	"fmt"
	"testing"
	"time"

	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/xmlutil"
)

func fixture() (*Cache, *simclock.Virtual) {
	v := simclock.NewVirtual(time.Time{})
	return New(v, time.Minute), v
}

func src(key string, lut time.Time) epr.EPR {
	e := epr.New("http://remote/wsrf/services/ADR", "ActivityDeploymentKey", key)
	e.LastUpdateTime = lut
	return e
}

func TestPutGet(t *testing.T) {
	c, v := fixture()
	doc := xmlutil.NewNode("ActivityDeployment")
	c.Put("jpovray", src("jpovray", v.Now()), doc)
	e, ok := c.Get("jpovray")
	if !ok || e.Doc != doc {
		t.Fatal("get failed")
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("missing key hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTTLExpiry(t *testing.T) {
	c, v := fixture()
	c.Put("a", src("a", v.Now()), nil)
	v.Advance(2 * time.Minute)
	if _, ok := c.Get("a"); ok {
		t.Fatal("stale entry served")
	}
	if c.Stats().Discarded != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	if c.Len() != 0 {
		t.Fatal("entry not evicted")
	}
}

func TestInvalidate(t *testing.T) {
	c, v := fixture()
	c.Put("a", src("a", v.Now()), nil)
	c.Invalidate("a")
	c.Invalidate("a") // idempotent
	if c.Len() != 0 || c.Stats().Discarded != 1 {
		t.Fatalf("len=%d stats=%+v", c.Len(), c.Stats())
	}
}

func TestRefreshRevivesChangedEntries(t *testing.T) {
	c, v := fixture()
	t0 := v.Now()
	c.Put("dep", src("dep", t0), xmlutil.NewNode("Old"))
	v.Advance(10 * time.Second)
	newLUT := v.Now()

	probe := func(key string, source epr.EPR) (time.Time, error) { return newLUT, nil }
	resolve := func(key string, source epr.EPR) (*xmlutil.Node, error) {
		return xmlutil.NewNode("New"), nil
	}
	revived, discarded := c.Refresh(probe, resolve)
	if revived != 1 || discarded != 0 {
		t.Fatalf("revived=%d discarded=%d", revived, discarded)
	}
	e, ok := c.Get("dep")
	if !ok || e.Doc.Name != "New" {
		t.Fatal("entry not revived")
	}
	if !e.Source.LastUpdateTime.Equal(newLUT) {
		t.Fatal("LUT not refreshed")
	}
	// Second refresh: LUT unchanged, nothing happens.
	revived, discarded = c.Refresh(probe, resolve)
	if revived != 0 || discarded != 0 {
		t.Fatalf("unchanged refresh revived=%d discarded=%d", revived, discarded)
	}
}

func TestRefreshDiscardsDeadSources(t *testing.T) {
	c, v := fixture()
	c.Put("gone", src("gone", v.Now()), nil)
	probe := func(string, epr.EPR) (time.Time, error) {
		return time.Time{}, fmt.Errorf("connection refused")
	}
	_, discarded := c.Refresh(probe, nil)
	if discarded != 1 || c.Len() != 0 {
		t.Fatal("dead source not discarded")
	}
}

func TestRefreshDiscardsWhenResolveFails(t *testing.T) {
	c, v := fixture()
	t0 := v.Now()
	c.Put("x", src("x", t0), nil)
	v.Advance(time.Second)
	probe := func(string, epr.EPR) (time.Time, error) { return v.Now(), nil }
	resolve := func(string, epr.EPR) (*xmlutil.Node, error) {
		return nil, fmt.Errorf("resource destroyed")
	}
	revived, discarded := c.Refresh(probe, resolve)
	if revived != 0 || discarded != 1 {
		t.Fatalf("revived=%d discarded=%d", revived, discarded)
	}
}

func TestKeys(t *testing.T) {
	c, v := fixture()
	c.Put("a", src("a", v.Now()), nil)
	c.Put("b", src("b", v.Now()), nil)
	if len(c.Keys()) != 2 {
		t.Fatal("keys wrong")
	}
}

func TestDefaultTTL(t *testing.T) {
	c := New(nil, 0)
	if c.ttl != DefaultTTL {
		t.Fatalf("ttl = %v", c.ttl)
	}
}

// TestGetAllocatesNothing: Get and GetStale sit on resolution's cache-hit
// path, so a hit, a stale serve and a miss allocate nothing.
func TestGetAllocatesNothing(t *testing.T) {
	c, v := fixture()
	c.SetStaleFor(10 * time.Minute)
	c.Put("old", src("old", v.Now()), nil)
	v.Advance(2 * time.Minute)
	c.Put("new", src("new", v.Now()), nil)
	allocs := testing.AllocsPerRun(100, func() {
		c.Get("new")
		c.Get("old")
		c.GetStale("old")
		c.Get("missing")
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per lookup round, want 0", allocs)
	}
}
