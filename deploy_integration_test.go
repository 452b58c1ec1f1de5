package glare

import (
	"strings"
	"sync"
	"testing"
	"time"

	"glare/internal/simclock"
)

// TestCrashedBuildResumesAfterRestart is the deployment-resilience
// acceptance path: on a 3-site grid, site 1's daemon dies mid-way through
// the on-demand JPOVray installation (after Java and Ant, with the archive
// already downloaded and verified). The restarted site resumes the build at
// its first incomplete step — re-downloading nothing — and registers
// exactly the deployments an uninterrupted installation would have.
func TestCrashedBuildResumesAfterRestart(t *testing.T) {
	g := newGrid(t, GridOptions{
		Sites:   3,
		DataDir: t.TempDir(),
		// Caches off so post-restart resolution provably hits registries.
		DisableCache: true,
	})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	installer := g.Client(1)
	if err := installer.RegisterTypes(ImagingTypes()...); err != nil {
		t.Fatal(err)
	}

	// The daemon dies right before JPOVray's final step: its dependencies
	// (Java, Ant) are fully installed and registered, the JPOVray archive
	// is downloaded, verified and unpacked.
	g.CrashBuildStep(1, "JPOVray", "Deploy")
	if _, err := installer.Deploy("JPOVray", MethodExpect); err == nil {
		t.Fatal("crashed deployment reported success")
	}

	g.StopSite(1)
	if err := g.RestartSite(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	recovered := g.Client(1)

	// The journal advertises the interrupted build before anyone retries.
	st := recovered.DeployEngineStatus()
	if len(st.Resumable) != 1 || st.Resumable[0].Type != "JPOVray" || st.Resumable[0].Steps == 0 {
		t.Fatalf("resumable builds after restart = %+v", st.Resumable)
	}

	rep, err := recovered.Deploy("JPOVray", MethodExpect)
	if err != nil {
		t.Fatalf("resumed deployment failed: %v", err)
	}
	names := map[string]bool{}
	for _, d := range rep.Deployments {
		names[d.Name] = true
	}
	if !names["jpovray"] || !names["WS-JPOVray"] {
		t.Fatalf("resumed deployment registered %v, want jpovray + WS-JPOVray", names)
	}

	// Zero re-download: every transfer the build needed happened in the
	// first life and was replayed from checkpoints in the second.
	if transfers, _ := g.vo.Nodes[1].RDM.FTP.Stats(); transfers != 0 {
		t.Fatalf("resumed build transferred %d archive(s), want 0", transfers)
	}
	tel := recovered.Telemetry()
	if n := tel.Counter("glare_deploy_steps_skipped_total").Value(); n == 0 {
		t.Fatal("glare_deploy_steps_skipped_total = 0, want > 0")
	}
	if n := tel.Counter("glare_deploy_resumes_total").Value(); n != 1 {
		t.Fatalf("glare_deploy_resumes_total = %d, want 1", n)
	}

	// The registration is identical in kind to a fresh install and
	// resolves grid-wide.
	deps, err := g.Client(2).DiscoverNoDeploy("ImageConversion")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range deps {
		if d.Name == "jpovray" && d.Site == g.SiteName(1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("resumed deployment not resolvable from site 2: %v", deps)
	}
	if st := recovered.DeployEngineStatus(); len(st.Resumable) != 0 {
		t.Fatalf("completed build still resumable: %+v", st.Resumable)
	}
}

// TestConcurrentDuplicateDeploysShareOneBuild proves grid-level dedup: two
// racing requests for the same type on the same site run one build and
// share its report.
func TestConcurrentDuplicateDeploysShareOneBuild(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 2})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	c := g.Client(1)
	if err := c.RegisterTypes(EvaluationTypes()...); err != nil {
		t.Fatal(err)
	}

	// Stretch the build in real time so the duplicate overlaps it.
	g.DelayBuildStep(1, "Wien2k", "Expand", 150*time.Millisecond)
	t.Cleanup(func() { g.ClearBuildFaults(1) })

	var wg sync.WaitGroup
	reports := make([]*DeployReport, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 1 {
				time.Sleep(30 * time.Millisecond)
			}
			reports[i], errs[i] = c.Deploy("Wien2k", MethodExpect)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil || reports[i] == nil || len(reports[i].Deployments) == 0 {
			t.Fatalf("request %d: report=%+v err=%v", i, reports[i], errs[i])
		}
	}
	if n := g.Telemetry(1).Counter("glare_deploy_dedup_hits_total").Value(); n != 1 {
		t.Fatalf("glare_deploy_dedup_hits_total = %d, want 1", n)
	}
	if transfers, _ := g.vo.Nodes[1].RDM.FTP.Stats(); transfers != 1 {
		t.Fatalf("duplicate deploys made %d transfers, want 1", transfers)
	}
}

// TestRepeatedBuildFailuresQuarantineType proves grid-level quarantine:
// three consecutive terminal build failures put the type in cool-down, new
// requests are refused up front, and the status surface shows it.
func TestRepeatedBuildFailuresQuarantineType(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 2})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	c := g.Client(1)
	if err := c.RegisterTypes(EvaluationTypes()...); err != nil {
		t.Fatal(err)
	}

	g.FailBuildStep(1, "Invmod", "Expand", 100)
	for i := 0; i < 3; i++ {
		if _, err := c.Deploy("Invmod", MethodExpect); err == nil {
			t.Fatalf("attempt %d succeeded despite injected fault", i+1)
		}
	}
	_, err := c.Deploy("Invmod", MethodExpect)
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("deploy of failing type got %v, want quarantine refusal", err)
	}

	st := c.DeployEngineStatus()
	if len(st.Quarantined) != 1 || st.Quarantined[0].Type != "Invmod" || st.Quarantined[0].Failures != 3 {
		t.Fatalf("quarantine status = %+v", st.Quarantined)
	}

	// After the cool-down a probe is allowed; with the fault cleared it
	// succeeds and lifts the quarantine.
	g.ClearBuildFaults(1)
	g.vo.Clock.(*simclock.Virtual).Advance(2 * time.Hour)
	if _, err := c.Deploy("Invmod", MethodExpect); err != nil {
		t.Fatalf("probe after cool-down failed: %v", err)
	}
	if st := c.DeployEngineStatus(); len(st.Quarantined) != 0 {
		t.Fatalf("quarantine not lifted by success: %+v", st.Quarantined)
	}
}

// twoGroups builds 4 sites in two peer groups of two and returns a member
// of one group (the caller) and the member of the other group.
func twoGroups(t *testing.T) (g *Grid, caller, other int) {
	t.Helper()
	g = newGrid(t, GridOptions{Sites: 4, GroupSize: 2})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	caller, other = -1, -1
	for i := 0; i < g.Sites(); i++ {
		switch {
		case g.IsSuperPeer(i):
		case caller < 0:
			caller = i
		case g.SuperPeerOf(i) != g.SuperPeerOf(caller):
			other = i
		}
	}
	if caller < 0 || other < 0 {
		t.Fatal("the election did not form two groups of two")
	}
	return g, caller, other
}

// imagingTypes returns the named types of the Section-2 hierarchy.
func imagingTypes(names ...string) []*Type {
	var out []*Type
	for _, t := range ImagingTypes() {
		for _, n := range names {
			if t.Name == n {
				out = append(out, t)
			}
		}
	}
	return out
}

// deployedTypes returns the types of the deployments on one site.
func deployedTypes(g *Grid, i int) map[string]bool {
	out := map[string]bool{}
	for _, d := range g.Client(i).Deployments() {
		out[d.Type] = true
	}
	return out
}

// TestCrossGroupDeploy: a type is registered on a single site, and GLARE
// deploys it on demand anywhere in the VO, dependencies first ("deploying
// JPOVray first deploys Java and Ant"), even from the peer group that does
// not own the types: every lookup climbs the same resolution ladder.
func TestCrossGroupDeploy(t *testing.T) {
	t.Run("the whole stack in the other group", func(t *testing.T) {
		g, caller, owner := twoGroups(t)
		if err := g.Client(owner).RegisterTypes(ImagingTypes()...); err != nil {
			t.Fatal(err)
		}
		deps, err := g.Client(caller).Discover("ImageConversion")
		if err != nil {
			t.Fatal(err)
		}
		if len(deps) == 0 {
			t.Fatal("on-demand deployment returned no deployments")
		}
		for _, d := range deps {
			if d.Type != "JPOVray" || d.Site != g.SiteName(caller) {
				t.Fatalf("deployment %s of %s on %s, want JPOVray on the caller %s", d.Name, d.Type, d.Site, g.SiteName(caller))
			}
		}
		if got := deployedTypes(g, caller); !got["Java"] || !got["Ant"] || !got["JPOVray"] {
			t.Fatalf("caller holds deployments of %v, want Java, Ant and JPOVray", got)
		}
	})
	t.Run("only the dependencies in the other group", func(t *testing.T) {
		g, caller, owner := twoGroups(t)
		if err := g.Client(owner).RegisterTypes(imagingTypes("Java", "Ant")...); err != nil {
			t.Fatal(err)
		}
		if err := g.Client(caller).RegisterTypes(imagingTypes("JPOVray")...); err != nil {
			t.Fatal(err)
		}
		rep, err := g.Client(caller).Deploy("JPOVray", MethodExpect)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Site != g.SiteName(caller) || len(rep.Deployments) == 0 {
			t.Fatalf("report = %+v, want deployments on the caller %s", rep, g.SiteName(caller))
		}
		if got := deployedTypes(g, caller); !got["Java"] || !got["Ant"] {
			t.Fatalf("caller holds deployments of %v, want Java and Ant", got)
		}
	})
}
