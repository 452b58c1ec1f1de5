package glare

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func newGrid(t *testing.T, opts GridOptions) *Grid {
	t.Helper()
	g, err := NewGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func TestQuickstartFlow(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 3})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	provider := g.Client(0)
	if err := provider.RegisterTypes(ImagingTypes()...); err != nil {
		t.Fatal(err)
	}
	scheduler := g.Client(1)
	deps, err := scheduler.Discover("ImageConversion")
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) == 0 {
		t.Fatal("no deployments")
	}
	names := map[string]bool{}
	for _, d := range deps {
		names[d.Name] = true
	}
	if !names["jpovray"] || !names["WS-JPOVray"] {
		t.Fatalf("deployments = %v", names)
	}
}

func TestGridAccessors(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 2})
	if g.Sites() != 2 {
		t.Fatalf("sites = %d", g.Sites())
	}
	if g.SiteName(0) == "" || g.SiteURL(0) == "" {
		t.Fatal("site identity empty")
	}
	if g.Client(5) != nil || g.Client(-1) != nil {
		t.Fatal("out-of-range client must be nil")
	}
	if g.Client(0).SiteName() != g.SiteName(0) {
		t.Fatal("client site mismatch")
	}
}

func TestLeasingThroughFacade(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 1})
	c := g.Client(0)
	if err := c.RegisterTypes(ImagingTypes()...); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Discover("JPOVray"); err != nil {
		t.Fatal(err)
	}
	tk, err := c.Lease("jpovray", "sched", LeaseExclusive, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Instantiate("jpovray", "sched", tk.ID, "scene.pov"); err != nil {
		t.Fatal(err)
	}
	if err := c.Instantiate("jpovray", "other", 0, ""); err == nil {
		t.Fatal("exclusive lease not enforced")
	}
	if err := c.Release(tk.ID); err != nil {
		t.Fatal(err)
	}
	c.SetSharedLimit("jpovray", 1)
	if _, err := c.Lease("jpovray", "a", LeaseShared, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lease("jpovray", "b", LeaseShared, time.Hour); err == nil {
		t.Fatal("shared limit not enforced")
	}
}

func TestSubscriptionsThroughFacade(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 1})
	c := g.Client(0)
	var mu sync.Mutex
	var seen []string
	if err := c.Subscribe(TopicDeployment, func(n Notification) {
		mu.Lock()
		seen = append(seen, n.Producer)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	c.RegisterTypes(ImagingTypes()...)
	if _, err := c.Discover("JPOVray"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no deployment notifications")
	}
}

// TestElectionNotificationsThroughFacade: TopicElection subscribers on a
// site's client hear the overlay views the site's agent installs, because
// the agent publishes on the same broker the client subscribes to.
func TestElectionNotificationsThroughFacade(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 3})
	var mu sync.Mutex
	heard := make([][]string, g.Sites())
	for i := 0; i < g.Sites(); i++ {
		i := i
		if err := g.Client(i).Subscribe(TopicElection, func(n Notification) {
			mu.Lock()
			heard[i] = append(heard[i], n.Producer)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, producers := range heard {
		if len(producers) == 0 {
			t.Fatalf("site %d heard no election notification", i)
		}
		for _, p := range producers {
			if p != g.SiteName(i) {
				t.Fatalf("site %d heard an election from %q, want its own agent %q", i, p, g.SiteName(i))
			}
		}
	}
}

func TestFailoverThroughFacade(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 4, GroupSize: 4})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	spName := g.SuperPeerOf(0)
	spIdx := -1
	for i := 0; i < g.Sites(); i++ {
		if g.SiteName(i) == spName {
			spIdx = i
		}
	}
	g.StopSite(spIdx)
	survivor := (spIdx + 1) % g.Sites()
	// Trigger detection directly (monitors would do this periodically);
	// the suspicion counter needs two consecutive missed probes.
	gvo := g.vo
	for i := 0; i < 2; i++ {
		if _, err := gvo.Nodes[survivor].Agent.DetectAndRecover(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for g.SuperPeerOf(survivor) == spName {
		select {
		case <-deadline:
			t.Fatal("no re-election")
		case <-time.After(20 * time.Millisecond):
		}
	}
	if !strings.HasPrefix(g.SuperPeerOf(survivor), "agrid") {
		t.Fatalf("new super-peer = %q", g.SuperPeerOf(survivor))
	}
}

func TestUndeployAndMigrateFacade(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 2, GroupSize: 2})
	g.Elect()
	c := g.Client(0)
	if err := c.RegisterTypes(EvaluationTypes()...); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Deploy("Wien2k", MethodExpect)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timings.Total() <= 0 {
		t.Fatal("no timings")
	}
	// Migrate one executable to the other site.
	dep := rep.Deployments[0]
	mig, err := c.Migrate(dep.Name, MethodExpect)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Site == c.SiteName() {
		t.Fatalf("migrated to same site %s", mig.Site)
	}
	// Old site no longer holds it.
	for _, d := range c.Deployments() {
		if d.Name == dep.Name {
			t.Fatal("deployment still on source site")
		}
	}
	// The target site does.
	other := g.Client(1)
	found := false
	for _, d := range other.Deployments() {
		if d.Name == dep.Name {
			found = true
		}
	}
	if !found {
		t.Fatal("deployment missing on target site")
	}
}

func TestAdminNoticesSurface(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 1})
	c := g.Client(0)
	manual := &Type{
		Name: "ManualOnly",
		Installation: &Installation{
			Mode:          ModeManual,
			DeployFileURL: "http://provider/x.build",
		},
	}
	if err := c.RegisterType(manual); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Discover("ManualOnly"); err == nil {
		t.Fatal("manual type must not auto-deploy")
	}
	notices := c.AdminNotices()
	if len(notices) == 0 || !strings.Contains(notices[0], "manual installation") {
		t.Fatalf("notices = %v", notices)
	}
}

func TestTypesAndDeploymentsListing(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 1})
	c := g.Client(0)
	c.RegisterTypes(ImagingTypes()...)
	if len(c.Types()) != len(ImagingTypes()) {
		t.Fatalf("types = %v", c.Types())
	}
	if len(c.Deployments()) != 0 {
		t.Fatal("phantom deployments")
	}
	c.Discover("JPOVray")
	if len(c.Deployments()) == 0 {
		t.Fatal("no deployments listed")
	}
}

func TestEnactWorkflowThroughFacade(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 2, GroupSize: 2})
	g.Elect()
	provider := g.Client(0)
	if err := provider.RegisterTypes(ImagingTypes()...); err != nil {
		t.Fatal(err)
	}
	w, err := ParseWorkflow(`
<Workflow name="mini">
  <Activity name="render" type="ImageConversion">
    <Input name="scene" source="user:scene.pov"/>
    <Output name="image"/>
  </Activity>
  <Activity name="post" type="JPOVray">
    <Input name="in" source="render:image"/>
  </Activity>
</Workflow>`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Enact(w, EnactOptions{Home: 1, LookAhead: true, Client: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placements) != 2 {
		t.Fatalf("placements = %+v", rep.Placements)
	}
	if rep.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	// Parse errors surface.
	if _, err := ParseWorkflow(`<Workflow name="w"/>`); err == nil {
		t.Fatal("empty workflow accepted")
	}
}

func TestSecureGrid(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 2, Secure: true})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(g.SiteURL(0), "https://") {
		t.Fatalf("url = %s", g.SiteURL(0))
	}
	c := g.Client(0)
	if err := c.RegisterTypes(ImagingTypes()...); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Client(1).Discover("POVray"); err != nil {
		t.Fatal(err)
	}
}

func TestSemanticSearchThroughFacade(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 1})
	c := g.Client(0)
	if err := c.RegisterTypes(ImagingTypes()...); err != nil {
		t.Fatal(err)
	}
	matches, err := c.Search(SemanticQuery{Function: "render", ConcreteOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Type.Name != "JPOVray" {
		t.Fatalf("matches = %+v", matches)
	}
	if matches[0].Via != "render" || matches[0].Score <= 0 {
		t.Fatalf("match detail = %+v", matches[0])
	}
}

func TestWrapServiceThroughFacade(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 1})
	c := g.Client(0)
	if err := c.RegisterTypes(EvaluationTypes()...); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("Wien2k", MethodExpect); err != nil {
		t.Fatal(err)
	}
	// Wien2k installs only executables; generate a WS wrapper for one.
	w, err := c.WrapService("lapw0")
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != KindService || w.Name != "WS-lapw0" || w.Address == "" {
		t.Fatalf("wrapper = %+v", w)
	}
	// The wrapper is a registered deployment of the same type and is
	// instantiable.
	deps, err := c.DiscoverNoDeploy("Wien2k")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range deps {
		if d.Name == "WS-lapw0" {
			found = true
		}
	}
	if !found {
		t.Fatal("wrapper not discoverable")
	}
	if err := c.Instantiate("WS-lapw0", "client", 0, ""); err != nil {
		t.Fatal(err)
	}
	// Double-wrapping and wrapping non-executables fail.
	if _, err := c.WrapService("lapw0"); err == nil {
		t.Fatal("double wrap accepted")
	}
	if _, err := c.WrapService("WS-lapw0"); err == nil {
		t.Fatal("wrapping a service accepted")
	}
	if _, err := c.WrapService("ghost"); err == nil {
		t.Fatal("wrapping a ghost accepted")
	}
}
