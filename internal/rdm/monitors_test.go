package rdm

import (
	"sync/atomic"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/adr"
	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/xmlutil"
)

// TestScheduleDriverSkipsBusyPass: the StartMonitors driver starts each
// due pass on its own goroutine, so a pass hung on a channel neither
// delays another pass nor is started a second time while it still runs.
// A virtual clock stands in for the wall clock to make the steps exact.
func TestScheduleDriverSkipsBusyPass(t *testing.T) {
	vc := simclock.NewVirtual(time.Time{})
	release := make(chan struct{})
	var slow, fast atomic.Int32
	tel := telemetry.New("site")
	sc := newSchedule([]monitorPass{
		{"slow", 2 * time.Second, nil, func() { slow.Add(1); <-release }},
		{"fast", time.Second, nil, func() { fast.Add(1) }},
	}, tel)
	stop := make(chan struct{})
	defer close(stop)
	go sc.drive(vc, stop)

	until := func(cond func() bool, what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// tick steps one second once the driver waits on the clock again.
	tick := func() {
		t.Helper()
		until(func() bool { return vc.Pending() == 1 }, "the driver to wait")
		vc.Advance(time.Second)
	}
	for s := int32(1); s <= 10; s++ {
		tick()
		until(func() bool { return fast.Load() == s }, "the fast pass")
	}
	if n := slow.Load(); n != 1 {
		t.Fatalf("the hung pass started %d times in 10 s, want once", n)
	}

	close(release)
	passRuns := func(p string) uint64 {
		return tel.Histogram("glare_monitor_pass_seconds", telemetry.L("pass", p)).Count()
	}
	until(func() bool { return passRuns("slow") == 1 }, "the hung pass to finish")
	tick()
	tick()
	until(func() bool { return slow.Load() == 2 }, "the released pass to run again")
	until(func() bool { return passRuns("fast") == 12 }, "the fast pass count")
}

// TestSchedulePassSurvivesPanic: a pass that panics once neither stops
// the schedule nor stays marked running. The panic is counted once on
// glare_monitor_pass_panics_total, and the pass runs again when it next
// comes due, through the StartMonitors driver and through
// AdvanceMonitors alike.
func TestSchedulePassSurvivesPanic(t *testing.T) {
	newPanicky := func(tel *telemetry.Telemetry) (*schedule, *atomic.Int32) {
		runs := new(atomic.Int32)
		return newSchedule([]monitorPass{
			{"panicky", time.Second, nil, func() {
				if runs.Add(1) == 1 {
					panic("first run fails")
				}
			}},
		}, tel), runs
	}
	check := func(t *testing.T, tel *telemetry.Telemetry, runs *atomic.Int32) {
		t.Helper()
		if n := runs.Load(); n != 2 {
			t.Fatalf("the pass ran %d times in 2 s, want twice", n)
		}
		if n := tel.Counter("glare_monitor_pass_panics_total", telemetry.L("pass", "panicky")).Value(); n != 1 {
			t.Fatalf("glare_monitor_pass_panics_total = %d, want 1", n)
		}
	}

	t.Run("driver", func(t *testing.T) {
		vc := simclock.NewVirtual(time.Time{})
		tel := telemetry.New("site")
		sc, runs := newPanicky(tel)
		stop := make(chan struct{})
		defer close(stop)
		go sc.drive(vc, stop)
		// settled reports whether the driver waits on the clock again
		// after n runs, none of them still marked running.
		settled := func(n int32) bool {
			sc.mu.Lock()
			defer sc.mu.Unlock()
			return vc.Pending() == 1 && runs.Load() == n && !sc.running[0]
		}
		for n := int32(0); n <= 2; n++ {
			for deadline := time.Now().Add(5 * time.Second); !settled(n); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for run %d to finish", n)
				}
			}
			if n < 2 {
				vc.Advance(time.Second)
			}
		}
		check(t, tel, runs)
	})
	t.Run("AdvanceMonitors", func(t *testing.T) {
		svc, vc := single(t)
		tel := telemetry.New("site")
		sc, runs := newPanicky(tel)
		svc.sched = sc
		AdvanceMonitors([]*Service{svc}, 2*time.Second, vc.Advance)
		check(t, tel, runs)
	})
}

// TestRefresherDiscardsEmptyAnswers: a source that answers GetLUT or Get
// with an empty body (its handler returned nil, nil) makes the Cache
// Refresher discard the entry it was checking, instead of crashing on the
// missing LUT or caching a nil document for a later lookup to trip over.
func TestRefresherDiscardsEmptyAnswers(t *testing.T) {
	svc, _ := single(t)
	empty := func(*xmlutil.Node) (*xmlutil.Node, error) { return nil, nil }
	newer := func(*xmlutil.Node) (*xmlutil.Node, error) {
		return xmlutil.NewNode("LUT", time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC).Format(epr.TimeLayout)), nil
	}
	peer := transport.NewServer()
	peer.Register("NoLUT", "GetLUT", empty)
	peer.Register("NoDoc", "GetLUT", newer)
	peer.Register("NoDoc", "Get", empty)
	if err := peer.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	keys := map[string]string{"dep:no-lut": "NoLUT", "dep:no-doc": "NoDoc"}
	for key, service := range keys {
		d := &activity.Deployment{Name: key[len("dep:"):], Type: "App", Kind: activity.KindExecutable, Path: "/opt/app/bin/run"}
		svc.depCache.Put(key, epr.New(peer.ServiceURL(service), adr.KeyName, d.Name), d.ToXML())
	}
	revived, discarded := svc.RefreshCaches()
	if revived != 0 || discarded != len(keys) {
		t.Fatalf("refresh revived %d and discarded %d entries, want 0 and %d", revived, discarded, len(keys))
	}
	for key := range keys {
		if _, ok := svc.depCache.Get(key); ok {
			t.Errorf("%s is still cached after its source answered with nothing", key)
		}
	}
}

// TestRefreshEvictsExpiredCacheEntries: a cached deployment older than its
// TTL plus the stale window can no longer be returned by any lookup, so
// the Cache Refresher discards it without asking its source for a LUT.
func TestRefreshEvictsExpiredCacheEntries(t *testing.T) {
	svc, vc := single(t)
	var probes atomic.Int32
	peer := transport.NewServer()
	peer.Register("Deps", "GetLUT", func(*xmlutil.Node) (*xmlutil.Node, error) {
		probes.Add(1)
		return xmlutil.NewNode("LUT", time.Time{}.Format(epr.TimeLayout)), nil
	})
	if err := peer.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	d := &activity.Deployment{Name: "old", Type: "App", Kind: activity.KindExecutable, Path: "/opt/app/bin/run"}
	svc.depCache.Put("dep:old", epr.New(peer.ServiceURL("Deps"), adr.KeyName, d.Name), d.ToXML())
	vc.Advance(36 * time.Minute) // past the 5 min TTL and the 30 min stale window
	revived, discarded := svc.RefreshCaches()
	if revived != 0 || discarded != 1 {
		t.Fatalf("refresh revived %d and discarded %d entries, want 0 and 1", revived, discarded)
	}
	if n := svc.depCache.Len(); n != 0 {
		t.Errorf("%d entries still cached, want the expired one gone", n)
	}
	if n := probes.Load(); n != 0 {
		t.Errorf("refresh sent %d GetLUT calls for an entry no lookup can return, want 0", n)
	}
}
