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

// TestRefreshEvictsUnreadableEntries: an entry that no lookup can return
// any more (past its TTL and past the stale window) is discarded by the
// refresher without a probe, while an entry still inside the stale window
// is probed as before.
func TestRefreshEvictsUnreadableEntries(t *testing.T) {
	c, v := fixture() // TTL one minute
	c.SetStaleFor(10 * time.Minute)
	c.Put("dead", src("dead", v.Now()), xmlutil.NewNode("D"))
	v.Advance(5 * time.Minute)
	c.Put("stale", src("stale", v.Now()), xmlutil.NewNode("S"))
	v.Advance(7 * time.Minute) // dead is 12 min old, stale 7 min

	var probed []string
	probe := func(key string, source epr.EPR) (time.Time, error) {
		probed = append(probed, key)
		return source.LastUpdateTime, nil // unchanged
	}
	revived, discarded := c.Refresh(probe, nil)
	if revived != 0 || discarded != 1 {
		t.Fatalf("revived=%d discarded=%d, want 0 and 1", revived, discarded)
	}
	if fmt.Sprint(probed) != "[stale]" {
		t.Fatalf("probed %v, want only the entry inside the stale window", probed)
	}
	if c.Len() != 1 || c.Stats().Discarded != 1 {
		t.Fatalf("len=%d stats=%+v, want the dead entry discarded and counted", c.Len(), c.Stats())
	}
	if _, ok := c.GetStale("stale"); !ok {
		t.Fatal("entry inside the stale window was dropped")
	}

	// Without stale retention an entry past its TTL is unreadable too.
	c, v = fixture()
	c.Put("expired", src("expired", v.Now()), nil)
	v.Advance(2 * time.Minute)
	probed = nil
	if _, discarded := c.Refresh(probe, nil); discarded != 1 || len(probed) != 0 || c.Len() != 0 {
		t.Fatalf("discarded=%d probed=%v len=%d, want the expired entry dropped unprobed", discarded, probed, c.Len())
	}
}
