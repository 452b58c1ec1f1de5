package glare

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"glare/internal/rrd"
	"glare/internal/simclock"
)

// TestHistoryAlertQuarantineAndRestart is the telemetry-history acceptance
// path: on a 3-site grid with durable stores, injected build faults drive a
// rising deploy-failure rate; the round-robin history records the spike at
// two resolutions; the default alert rule fires and quarantines the failing
// type pre-emptively — before the consecutive-failure threshold would —
// /healthz reports the firing alert, and the archives survive a site
// restart by replaying the store journal.
func TestHistoryAlertQuarantineAndRestart(t *testing.T) {
	const step = 5 * time.Second
	g := newGrid(t, GridOptions{
		Sites:   3,
		DataDir: t.TempDir(),
		// A deliberately high threshold: consecutive failures alone must
		// not quarantine Invmod inside this test's attempt budget.
		Deploy:  DeployLimits{QuarantineAfter: 6, QuarantineCooldown: time.Hour},
		History: HistoryConfig{Step: step},
	})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	c := g.Client(1)
	if err := c.RegisterTypes(EvaluationTypes()...); err != nil {
		t.Fatal(err)
	}
	clock := g.vo.Clock.(*simclock.Virtual)

	// Seed the history so the rollback counter has a baseline sample.
	g.vo.Nodes[1].RDM.SampleTelemetry()

	// Chaos: every Invmod build dies at its Expand step and rolls back.
	g.FailBuildStep(1, "Invmod", "Expand", 100)

	rollbacks, quarantined := 0, false
	for i := 0; i < 12 && !quarantined; i++ {
		_, err := c.Deploy("Invmod", MethodExpect)
		if err == nil {
			t.Fatalf("attempt %d succeeded despite injected fault", i+1)
		}
		if strings.Contains(err.Error(), "quarantined") {
			quarantined = true
			break
		}
		rollbacks++
		clock.Advance(step)
		g.vo.Nodes[1].RDM.SampleTelemetry()
	}
	if !quarantined {
		t.Fatalf("type never quarantined after %d rollbacks", rollbacks)
	}
	// The alert pre-empted the threshold: far fewer consecutive failures
	// than DeployLimits.QuarantineAfter actually happened.
	if rollbacks >= 6 {
		t.Fatalf("quarantine came only after %d rollbacks — not pre-emptive", rollbacks)
	}
	st := c.DeployEngineStatus()
	if len(st.Quarantined) != 1 || st.Quarantined[0].Type != "Invmod" ||
		!st.Quarantined[0].Preempted {
		t.Fatalf("quarantine status = %+v, want pre-empted Invmod", st.Quarantined)
	}
	firing := c.FiringAlerts()
	if len(firing) != 1 || firing[0].Rule.Name != "deploy-failure-rate" {
		t.Fatalf("firing alerts = %+v", firing)
	}

	// The health endpoint reflects the incident while it is live.
	health := scrapeAdmin(t, g.SiteURL(1)+"/healthz")
	for _, want := range []string{`"status":"alerting"`, `"quarantined":1`, `"firing_alerts":1`} {
		if !strings.Contains(health, want) {
			t.Fatalf("healthz missing %s: %s", want, health)
		}
	}

	// Keep sampling past a coarse slot boundary so the 10-step archive
	// consolidates the spike into a closed row.
	for i := 0; i < 12; i++ {
		clock.Advance(step)
		g.vo.Nodes[1].RDM.SampleTelemetry()
	}

	// The spike is visible at two resolutions of the same series.
	assertSpike := func(h *HistoryStore, context string) {
		t.Helper()
		x, err := h.Xport("glare_deploy_rollbacks_total")
		if err != nil {
			t.Fatalf("%s: %v", context, err)
		}
		found := map[time.Duration]bool{}
		for _, a := range x.Archives {
			if a.Spec.CF != rrd.Average {
				continue
			}
			for _, p := range a.Points {
				if !p.Live && p.V > 0 {
					found[a.Step] = true
				}
			}
		}
		if !found[step] || !found[10*step] {
			t.Fatalf("%s: spike resolutions = %v, want both %v and %v",
				context, found, step, 10*step)
		}
	}
	assertSpike(c.History(), "before restart")

	// Crash-and-recover: the archives replay out of the store journal.
	g.StopSite(1)
	if err := g.RestartSite(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	assertSpike(g.Client(1).History(), "after restart")
}

// TestSuperPeerRollupConsolidatesGridSeries: community members' archives
// fold into grid-wide grid:<metric> series on the super-peer, summing
// per-slot rates across sites; non-super-peers fold nothing.
func TestSuperPeerRollupConsolidatesGridSeries(t *testing.T) {
	const step = 5 * time.Second
	g := newGrid(t, GridOptions{Sites: 3, History: HistoryConfig{Step: step}})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	clock := g.vo.Clock.(*simclock.Virtual)

	// Give two different sites rollback activity, then sample everywhere
	// across several closed slots.
	for tick := 0; tick < 4; tick++ {
		for i := 0; i < g.Sites(); i++ {
			if tick > 0 && (i == 0 || i == 2) {
				g.Telemetry(i).Counter("glare_deploy_rollbacks_total").Inc()
			}
			g.vo.Nodes[i].RDM.SampleTelemetry()
		}
		clock.Advance(step)
	}

	super, members := -1, 0
	for i := 0; i < g.Sites(); i++ {
		if g.IsSuperPeer(i) {
			super = i
		} else {
			members++
		}
	}
	if super < 0 || members == 0 {
		t.Fatalf("no super-peer elected")
	}
	if n := g.vo.Nodes[(super+1)%g.Sites()].RDM.RollupHistory(); n != 0 {
		t.Fatalf("member folded %d rollup points", n)
	}
	n := g.vo.Nodes[super].RDM.RollupHistory()
	if n == 0 {
		t.Fatal("super-peer rollup folded nothing")
	}
	h := g.Client(super).History()
	grid := "grid:glare_deploy_rollbacks_total"
	if !h.Has(grid) {
		t.Fatalf("missing %s; have %v", grid, h.Names())
	}
	// Read the finest archive's slot-exact rates (a wide Fetch range would
	// select a coarser consolidation).
	x, err := h.Xport(grid)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, a := range x.Archives {
		if a.Spec.CF != rrd.Average || a.Spec.Steps != 1 {
			continue
		}
		for _, p := range a.Points {
			if p.V > 0 {
				sum += p.V * step.Seconds()
			}
		}
	}
	// Sites 0 and 2 each produced two closed rate slots of one rollback
	// per step (the third increment is still in the live head slot and is
	// not rolled up), so the grid series integrates to 4 rollbacks.
	if sum < 3.5 || sum > 4.5 {
		t.Fatalf("grid series integrates to %.2f rollbacks, want ~4", sum)
	}
	// A second pass re-pulls nothing new: everything folded is deduped by
	// the grid series' own timestamps.
	if again := g.vo.Nodes[super].RDM.RollupHistory(); again != 0 {
		t.Fatalf("idempotent re-rollup folded %d points", again)
	}
}

// TestHistoryRestartIsBitIdentical pins DESIGN §12's claim that a restart
// replays the archives bit for bit: a durable site samples for 24 ticks,
// with NaN gaps, a moving counter and one explicit snapshot partway, and
// its full history dump (rings, NaN slots, open accumulators, counter
// seeds) marshals to the same JSON after StopSite/RestartSite.
func TestHistoryRestartIsBitIdentical(t *testing.T) {
	const step = 5 * time.Second
	g := newGrid(t, GridOptions{Sites: 2, DataDir: t.TempDir(), History: HistoryConfig{Step: step}})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	c := g.Client(1)
	clock := g.vo.Clock.(*simclock.Virtual)
	for tick := 0; tick < 24; tick++ {
		clock.Advance(step)
		if tick%7 == 4 {
			clock.Advance(2 * step) // unsampled slots become NaN
		}
		g.Telemetry(1).Counter("glare_deploy_rollbacks_total").Add(uint64(tick % 3))
		g.vo.Nodes[1].RDM.SampleTelemetry()
		if tick == 11 {
			if err := c.svc.Store().Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !c.svc.Store().Status().HasSnapshot {
		t.Fatal("no snapshot taken")
	}
	before, err := json.Marshal(c.History().Dump())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(before, []byte("null")) {
		t.Fatal("the run left no NaN slot to carry across the restart")
	}

	g.StopSite(1)
	if err := g.RestartSite(1); err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(g.Client(1).History().Dump())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("history changed across the restart:\nbefore %s\n after %s", before, after)
	}
}
