package rdm

import (
	"sync/atomic"
	"testing"
	"time"

	"glare/internal/simclock"
	"glare/internal/telemetry"
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
