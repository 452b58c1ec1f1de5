package faultinject

import (
	"testing"
	"time"

	"glare/internal/simclock"
)

// A site's skewed view is keyed by NAME: rebuilding the site (a restart
// or replacement) hands back the same still-displaced view, because
// rebooting a machine does not fix its NTP.
func TestClockChaosViewSurvivesRebuild(t *testing.T) {
	base := simclock.NewVirtual(time.Unix(1_000_000, 0))
	cc := NewClockChaos()

	v1 := cc.View("agrid01.uibk", base)
	if !cc.SkewSite("agrid01.uibk", 5*time.Minute) {
		t.Fatal("SkewSite refused a site built through View")
	}
	if got := v1.Now().Sub(base.Now()); got != 5*time.Minute {
		t.Fatalf("view displaced by %v, want 5m", got)
	}

	// The rebuilt site reads through the same view, skew intact.
	v2 := cc.View("agrid01.uibk", base)
	if got := v2.Now().Sub(base.Now()); got != 5*time.Minute {
		t.Fatalf("rebuilt view displaced by %v, want the surviving 5m", got)
	}
	if cc.Offset("agrid01.uibk") != 5*time.Minute {
		t.Fatalf("Offset = %v, want 5m", cc.Offset("agrid01.uibk"))
	}
}

// SkewSite/DriftSite on a never-built site must refuse rather than
// silently arm a view nobody reads.
func TestClockChaosUnknownSiteRefused(t *testing.T) {
	cc := NewClockChaos()
	if cc.SkewSite("ghost.uibk", time.Minute) {
		t.Fatal("SkewSite accepted a site never built through View")
	}
	if cc.DriftSite("ghost.uibk", 0.001) {
		t.Fatal("DriftSite accepted a site never built through View")
	}
	if cc.Offset("ghost.uibk") != 0 {
		t.Fatal("Offset non-zero for an unknown site")
	}
}

// ScheduleSkew is deterministic in (seed, view set): the same seed
// yields the same per-site offsets regardless of View-call order, a
// different seed yields a different schedule, and every offset stays
// inside ±max with drift armed in the offset's direction.
func TestClockChaosScheduleSkewDeterministic(t *testing.T) {
	const max = 10 * time.Minute
	names := []string{"agrid03.uibk", "agrid01.uibk", "agrid02.uibk"}

	build := func(order []string) (*ClockChaos, simclock.Clock) {
		base := simclock.NewVirtual(time.Unix(1_000_000, 0))
		cc := NewClockChaos()
		for _, n := range order {
			cc.View(n, base)
		}
		return cc, base
	}

	ccA, _ := build(names)
	ccB, _ := build([]string{"agrid01.uibk", "agrid02.uibk", "agrid03.uibk"})
	a := ccA.ScheduleSkew(77, max)
	b := ccB.ScheduleSkew(77, max)
	if len(a) != len(names) {
		t.Fatalf("schedule covered %d sites, want %d", len(a), len(names))
	}
	for n, off := range a {
		if b[n] != off {
			t.Fatalf("site %s drew %v and %v from the same seed", n, off, b[n])
		}
		if off > max || off < -max {
			t.Fatalf("site %s offset %v outside ±%v", n, off, max)
		}
		if ccA.Offset(n) != off {
			t.Fatalf("site %s applied %v, schedule says %v", n, ccA.Offset(n), off)
		}
	}

	ccC, _ := build(names)
	c := ccC.ScheduleSkew(78, max)
	same := true
	for n := range a {
		if c[n] != a[n] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 77 and 78 drew identical schedules")
	}
}

// Drift armed by the schedule keeps displaced clocks wandering in the
// offset's direction as base time advances.
func TestClockChaosScheduleSkewDriftDirection(t *testing.T) {
	base := simclock.NewVirtual(time.Unix(1_000_000, 0))
	cc := NewClockChaos()
	views := map[string]simclock.Clock{}
	for _, n := range []string{"agrid01.uibk", "agrid02.uibk", "agrid03.uibk", "agrid04.uibk"} {
		views[n] = cc.View(n, base)
	}
	offsets := cc.ScheduleSkew(2006, 10*time.Minute)

	before := map[string]time.Duration{}
	for n, v := range views {
		before[n] = v.Now().Sub(base.Now())
	}
	base.Advance(10 * time.Hour)
	for n, v := range views {
		disp := v.Now().Sub(base.Now())
		moved := disp - before[n]
		switch {
		case offsets[n] > 0 && moved <= 0:
			t.Fatalf("site %s offset %v but displacement moved %v after 10h", n, offsets[n], moved)
		case offsets[n] < 0 && moved >= 0:
			t.Fatalf("site %s offset %v but displacement moved %v after 10h", n, offsets[n], moved)
		}
	}
}
