package glare

import (
	"testing"
	"time"

	"glare/internal/telemetry"
)

var monitorPassNames = []string{"refresh", "index", "status", "liveness", "sync",
	"sample", "rollup", "repair"}

// passRuns reads site i's glare_monitor_pass_seconds count per pass.
func passRuns(g *Grid, i int) map[string]uint64 {
	out := map[string]uint64{}
	for _, p := range monitorPassNames {
		out[p] = g.Telemetry(i).Histogram("glare_monitor_pass_seconds", telemetry.L("pass", p)).Count()
	}
	return out
}

// idleSchedule runs one virtual minute of the shipped monitor schedule on
// a 3-site, K = 3 grid, skewing each site's clock by the given offset,
// and returns every site's per-pass run counts and super-peer role.
func idleSchedule(t *testing.T, skew ...time.Duration) (runs []map[string]uint64, superPeer []bool) {
	t.Helper()
	g := newGrid(t, GridOptions{Sites: 3, Replicas: 3})
	for i, off := range skew {
		g.SkewSite(i, off)
	}
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Sites(); i++ {
		runs = append(runs, passRuns(g, i))
		superPeer = append(superPeer, g.IsSuperPeer(i))
	}
	return runs, superPeer
}

// TestMonitorScheduleRunsTable: one virtual minute runs each pass 60 s /
// its interval times on every site its runs-on filter admits, and never
// on the others.
func TestMonitorScheduleRunsTable(t *testing.T) {
	everySite := map[string]uint64{"refresh": 12, "index": 20, "status": 12, "liveness": 30,
		"sample": 30, "repair": 12}
	superPeerOnly := map[string]uint64{"sync": 12, "rollup": 12}
	runs, superPeer := idleSchedule(t)
	superPeers := 0
	for i, got := range runs {
		isSP := superPeer[i]
		if isSP {
			superPeers++
		}
		for p, n := range everySite {
			if got[p] != n {
				t.Errorf("site %d: %s ran %d times, want %d", i, p, got[p], n)
			}
		}
		for p, n := range superPeerOnly {
			if !isSP {
				n = 0
			}
			if got[p] != n {
				t.Errorf("site %d (super-peer %v): %s ran %d times, want %d", i, isSP, p, got[p], n)
			}
		}
	}
	if superPeers != 1 {
		t.Fatalf("%d super-peers in a 3-site group, want 1", superPeers)
	}
}

// TestMonitorScheduleIgnoresSkew: the schedule counts credited time, not
// the site's Now, so a site ten minutes slow and one ten minutes fast run
// every pass exactly as often as on an unskewed grid.
func TestMonitorScheduleIgnoresSkew(t *testing.T) {
	plain, _ := idleSchedule(t)
	skewed, _ := idleSchedule(t, 0, -10*time.Minute, 10*time.Minute)
	for i := range plain {
		for _, p := range monitorPassNames {
			if skewed[i][p] != plain[i][p] {
				t.Errorf("site %d: %s ran %d times skewed, %d unskewed", i, p, skewed[i][p], plain[i][p])
			}
		}
	}
}

// TestAdvanceNeedsVirtualClock: a RealTime grid's schedules run on the
// wall clock; there is no clock for Advance to step.
func TestAdvanceNeedsVirtualClock(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 1, RealTime: true})
	if err := g.Advance(time.Second); err == nil {
		t.Fatal("Advance on a RealTime grid succeeded")
	}
}
