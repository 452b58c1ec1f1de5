package cache

import (
	"fmt"
	"testing"
	"time"

	"glare/internal/epr"
	"glare/internal/xmlutil"
)

func TestStaleRetentionWindow(t *testing.T) {
	c, v := fixture() // TTL one minute
	c.SetStaleFor(10 * time.Minute)
	doc := xmlutil.NewNode("ActivityDeployment")
	c.Put("d", src("d", v.Now()), doc)

	// Fresh: both paths hit.
	if _, ok := c.Get("d"); !ok {
		t.Fatal("fresh Get missed")
	}
	if _, ok := c.GetStale("d"); !ok {
		t.Fatal("fresh GetStale missed")
	}

	// Expired but within the window: Get misses without evicting,
	// GetStale serves.
	v.Advance(5 * time.Minute)
	if _, ok := c.Get("d"); ok {
		t.Fatal("expired entry served by Get")
	}
	if c.Len() != 1 {
		t.Fatal("expired entry evicted despite stale retention")
	}
	e, ok := c.GetStale("d")
	if !ok || e.Doc != doc {
		t.Fatal("stale entry not served by GetStale")
	}
	st := c.Stats()
	if st.Stale != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Discarded != 0 {
		t.Fatalf("retained entry counted as discarded: %+v", st)
	}

	// Past the window: GetStale evicts and misses.
	v.Advance(10 * time.Minute)
	if _, ok := c.GetStale("d"); ok {
		t.Fatal("entry older than the revival window served")
	}
	if c.Len() != 0 {
		t.Fatal("entry not evicted past the window")
	}
	st = c.Stats()
	if st.Discarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetStaleWithoutRetentionBehavesLikeGet(t *testing.T) {
	c, v := fixture() // staleFor defaults to 0: eager eviction
	c.Put("d", src("d", v.Now()), xmlutil.NewNode("X"))
	v.Advance(2 * time.Minute)
	if _, ok := c.GetStale("d"); ok {
		t.Fatal("stale served with retention disabled")
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not evicted with retention disabled")
	}
}

// TestRefreshAgesUnreachableSources: a refresh that cannot reach the
// source, at the probe or at the fetch, keeps the entry but ages it past
// its TTL, so Get misses and GetStale serves it until the window ends. A
// later unreachable pass does not extend the window.
func TestRefreshAgesUnreachableSources(t *testing.T) {
	c, v := fixture() // TTL one minute
	c.SetStaleFor(10 * time.Minute)
	c.Put("probe", src("probe", v.Now()), xmlutil.NewNode("P"))
	c.Put("fetch", src("fetch", v.Now()), xmlutil.NewNode("F"))
	unreachable := fmt.Errorf("dial: %w", ErrUnreachable)
	probe := func(key string, _ epr.EPR) (time.Time, error) {
		if key == "probe" {
			return time.Time{}, unreachable
		}
		return v.Now().Add(time.Second), nil // changed: fetch it
	}
	resolve := func(string, epr.EPR) (*xmlutil.Node, error) { return nil, unreachable }

	if revived, discarded := c.Refresh(probe, resolve); revived != 0 || discarded != 0 || c.Len() != 2 {
		t.Fatalf("revived=%d discarded=%d len=%d, want both entries kept", revived, discarded, c.Len())
	}
	for _, key := range []string{"probe", "fetch"} {
		if _, ok := c.Get(key); ok {
			t.Fatalf("%s: Get served an entry whose source is unreachable", key)
		}
		if e, ok := c.GetStale(key); !ok || e.Doc == nil {
			t.Fatalf("%s: GetStale missed the aged entry", key)
		}
	}
	if st := c.Stats(); st.Discarded != 0 || st.Stale != 2 {
		t.Fatalf("stats = %+v", st)
	}

	v.Advance(9 * time.Minute)
	c.Refresh(probe, resolve)
	v.Advance(2 * time.Minute)
	for _, key := range []string{"probe", "fetch"} {
		if _, ok := c.GetStale(key); ok {
			t.Fatalf("%s: served past the window that began at the first unreachable pass", key)
		}
	}
}
