package glare

import (
	"testing"
	"time"

	"glare/internal/simclock"
)

// registerDeployment registers a pre-installed executable deployment of
// typeName on site i (dynamically registering the concrete type).
func registerDeployment(t *testing.T, g *Grid, i int, name, typeName string) {
	t.Helper()
	c := g.Client(i)
	c.ProvisionExecutable("/opt/robust/bin/" + name)
	if err := c.RegisterDeployment(&Deployment{
		Name: name,
		Type: typeName,
		Kind: KindExecutable,
		Site: c.SiteName(),
		Path: "/opt/robust/bin/" + name,
	}); err != nil {
		t.Fatal(err)
	}
}

func depNames(deps []*Deployment) map[string]bool {
	out := map[string]bool{}
	for _, d := range deps {
		out[d.Name] = true
	}
	return out
}

// TestResolutionSurvivesBlackHoledSite is the robustness acceptance path:
// a three-site VO with deterministic fault injection black-holes one site
// mid-run; resolution from another site still returns the live sites'
// deployments with no error surfaced to the enactor, and the caller's
// /metrics shows nonzero retry and breaker-open counters.
func TestResolutionSurvivesBlackHoledSite(t *testing.T) {
	g := newGrid(t, GridOptions{
		Sites:        3,
		GroupSize:    3,
		DisableCache: true, // every resolution re-fans-out
		ChaosSeed:    42,
		CallTimeout:  250 * time.Millisecond, // quick black-hole timeouts
	})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	registerDeployment(t, g, 0, "dep-a", "ChaosApp")
	registerDeployment(t, g, 2, "dep-c", "ChaosApp")
	scheduler := g.Client(1)

	// Healthy baseline: both deployments resolve.
	deps, err := scheduler.DiscoverNoDeploy("ChaosApp")
	if err != nil {
		t.Fatal(err)
	}
	if names := depNames(deps); !names["dep-a"] || !names["dep-c"] {
		t.Fatalf("healthy resolution = %v", names)
	}

	// Partition site 0: requests to it hang until the caller's timeout.
	if err := g.BlackHoleSite(0); err != nil {
		t.Fatal(err)
	}
	deps, err = scheduler.DiscoverNoDeploy("ChaosApp")
	if err != nil {
		t.Fatalf("resolution must survive a black-holed site, got %v", err)
	}
	names := depNames(deps)
	if !names["dep-c"] {
		t.Fatalf("live site's deployment missing: %v", names)
	}
	if names["dep-a"] {
		t.Fatalf("partitioned site's deployment should be absent: %v", names)
	}
	if n := g.Telemetry(1).Counter("glare_rdm_resolve_degraded_total").Value(); n == 0 {
		t.Fatal("degraded counter did not move")
	}

	// The caller's own /metrics page tells the story: retries were spent
	// and the dead destination's breaker tripped open.
	metrics := scrapeAdmin(t, g.SiteURL(1)+"/metrics")
	if !nonzeroSeries(metrics, "glare_transport_retries_total{") {
		t.Fatal("no transport retries on the caller's /metrics")
	}
	if !nonzeroSeries(metrics, "glare_transport_breaker_open_total{") {
		t.Fatal("no breaker-open events on the caller's /metrics")
	}

	// Healing the partition restores full resolution.
	if err := g.RestoreSite(0); err != nil {
		t.Fatal(err)
	}
	// The breaker may still be open for a few seconds; the degraded answer
	// in the meantime must keep coming from the live site.
	deps, err = scheduler.DiscoverNoDeploy("ChaosApp")
	if err != nil {
		t.Fatal(err)
	}
	if names := depNames(deps); !names["dep-c"] {
		t.Fatalf("post-restore resolution = %v", names)
	}
}

// TestFanOutWithDeadPeerReturnsLivePeers stops one of three sites outright
// (connection refused, not a timeout): the deployment fan-out still
// returns the surviving peers' deployments and counts the resolution as
// degraded.
func TestFanOutWithDeadPeerReturnsLivePeers(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 3, GroupSize: 3, DisableCache: true})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	registerDeployment(t, g, 0, "fan-a", "FanApp")
	registerDeployment(t, g, 2, "fan-c", "FanApp")
	scheduler := g.Client(1)

	if n := g.Telemetry(1).Counter("glare_rdm_resolve_degraded_total").Value(); n != 0 {
		t.Fatalf("degraded = %d before any failure", n)
	}
	g.StopSite(0)

	deps, err := scheduler.DiscoverNoDeploy("FanApp")
	if err != nil {
		t.Fatalf("fan-out with one dead peer must succeed: %v", err)
	}
	names := depNames(deps)
	if !names["fan-c"] || names["fan-a"] {
		t.Fatalf("deployments = %v, want only the live peer's", names)
	}
	if n := g.Telemetry(1).Counter("glare_rdm_resolve_degraded_total").Value(); n == 0 {
		t.Fatal("degraded counter did not move")
	}
}

// TestStaleCacheServesDegradedResults exercises graceful degradation: when
// every peer is unreachable and the cache entries have expired past their
// TTL (but within the revival window), resolution serves the stale entries
// marked Degraded instead of failing.
func TestStaleCacheServesDegradedResults(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 3, GroupSize: 3, ChaosSeed: 7})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	registerDeployment(t, g, 0, "stale-a", "StaleApp")
	scheduler := g.Client(1)

	// Warm the cache with a healthy resolution.
	deps, err := scheduler.DiscoverNoDeploy("StaleApp")
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || deps[0].Degraded {
		t.Fatalf("healthy resolution = %+v", deps)
	}

	// Expire the cache (TTL 5m) while staying inside the 30m revival
	// window, then cut site 1 off from every peer.
	g.vo.Clock.(*simclock.Virtual).Advance(10 * time.Minute)
	if err := g.DropSite(0); err != nil {
		t.Fatal(err)
	}
	if err := g.DropSite(2); err != nil {
		t.Fatal(err)
	}

	deps, err = scheduler.DiscoverNoDeploy("StaleApp")
	if err != nil {
		t.Fatalf("degraded resolution must serve stale cache, got %v", err)
	}
	if len(deps) != 1 || deps[0].Name != "stale-a" {
		t.Fatalf("stale resolution = %+v", deps)
	}
	if !deps[0].Degraded {
		t.Fatal("stale-served deployment not marked Degraded")
	}
	tel := g.Telemetry(1)
	if n := tel.Counter("glare_rdm_resolve_degraded_total").Value(); n == 0 {
		t.Fatal("degraded counter did not move")
	}
	metrics := scrapeAdmin(t, g.SiteURL(1)+"/metrics")
	if !nonzeroSeries(metrics, "glare_rdm_cache_stale_served_total{") {
		t.Fatal("no stale-served series on /metrics")
	}

	// Past the revival window even stale entries are gone: resolution now
	// fails rather than serving arbitrarily old data.
	g.vo.Clock.(*simclock.Virtual).Advance(time.Hour)
	if _, err := scheduler.DiscoverNoDeploy("StaleApp"); err == nil {
		t.Fatal("resolution served data older than the revival window")
	}
}

// TestStaleCacheSurvivesRefreshDuringCut: a Cache Refresher pass that runs
// while every source is cut off must not discard what degraded resolution
// needs. The refresher ages the unreachable entries past their TTL, so a
// healthy lookup would miss them, and resolution serves them, marked
// Degraded, until the revival window that began at that pass ends.
func TestStaleCacheSurvivesRefreshDuringCut(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 3, GroupSize: 3, ChaosSeed: 7})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	registerDeployment(t, g, 0, "stale-a", "StaleApp")
	scheduler := g.Client(1)
	if _, err := scheduler.DiscoverNoDeploy("StaleApp"); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if err := g.DropSite(i); err != nil {
			t.Fatal(err)
		}
	}
	clock := g.vo.Clock.(*simclock.Virtual)
	refresher := g.vo.Nodes[1].RDM
	// The first pass runs while the entries are still fresh (TTL 5m), the
	// second ten minutes into the cut; both find the source unreachable.
	for _, wait := range []time.Duration{0, 10 * time.Minute} {
		clock.Advance(wait)
		if revived, discarded := refresher.RefreshCaches(); revived != 0 || discarded != 0 {
			t.Fatalf("refresh during the cut revived %d and discarded %d entries, want none", revived, discarded)
		}
		deps, err := scheduler.DiscoverNoDeploy("StaleApp")
		if err != nil {
			t.Fatalf("%v into the cut: degraded resolution must serve the stale cache, got %v", wait, err)
		}
		if len(deps) != 1 || deps[0].Name != "stale-a" || !deps[0].Degraded {
			t.Fatalf("%v into the cut: resolution = %+v, want stale-a marked Degraded", wait, deps)
		}
	}
	// The window (30m) runs from the first pass, not from the last.
	clock.Advance(21 * time.Minute)
	refresher.RefreshCaches()
	if _, err := scheduler.DiscoverNoDeploy("StaleApp"); err == nil {
		t.Fatal("resolution served data older than the revival window")
	}
}
