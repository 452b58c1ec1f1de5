package rdm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/deployfile"
	"glare/internal/mds"
	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/superpeer"
	"glare/internal/transport"
	"glare/internal/workload"
	"glare/internal/wsrf"
)

// soloConfig returns the configuration of a site that runs alone: its own
// overlay agent (in no group yet), a transport client and a Default Index.
// The agent's base URL keeps service addresses at
// http://<site>/wsrf/services/<name>.
func soloConfig(st *site.Site, clock simclock.Clock) Config {
	name := st.Attrs.Name
	client := transport.NewClient(nil)
	return Config{
		Site:       st,
		Clock:      clock,
		Client:     client,
		Agent:      superpeer.NewAgent(superpeer.SiteInfo{Name: name, BaseURL: "http://" + name}, client, wsrf.NewBroker(nil)),
		LocalIndex: mds.New("index-"+name, mds.DefaultIndex, clock),
	}
}

// single builds a standalone single-site RDM: nothing listens, and the
// overlay view is empty, so every lookup stays local.
func single(t *testing.T) (*Service, *simclock.Virtual) {
	t.Helper()
	v := simclock.NewVirtual(time.Time{})
	st := site.New(site.Attributes{
		Name: "solo.uibk", ProcessorMHz: 1500, MemoryMB: 2048,
		Platform: "Intel", OS: "Linux", Arch: "32bit",
	}, v, site.StandardUniverse())
	cfg := soloConfig(st, v)
	cfg.DeployFiles = workload.NewResolver(st.Repo).Fetch
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return svc, v
}

func registerImaging(t *testing.T, s *Service) {
	t.Helper()
	for _, ty := range workload.ImagingTypes() {
		if _, err := s.RegisterType(ty); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOnDemandDeploymentResolvesDependencies(t *testing.T) {
	s, v := single(t)
	registerImaging(t, s)
	t0 := v.Now()

	// The Example-3 flow: ask for the abstract ImageConversion type; GLARE
	// finds concrete JPOVray, sees no deployment anywhere, installs Java
	// and Ant first, then JPOVray, and returns the deployment references.
	deps, err := s.GetDeployments("ImageConversion", MethodExpect, true)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range deps {
		names[d.Name] = true
	}
	if !names["jpovray"] || !names["WS-JPOVray"] {
		t.Fatalf("deployments = %v", names)
	}
	// The dependency chain was installed.
	if len(s.ADR.ByType("Java")) == 0 || len(s.ADR.ByType("Ant")) == 0 {
		t.Fatal("dependencies not deployed")
	}
	// The type is marked deployed on this site.
	if on := s.ATR.DeployedOn("JPOVray"); len(on) != 1 || on[0] != "solo.uibk" {
		t.Fatalf("deployed on %v", on)
	}
	// Virtual time advanced by a realistic installation duration
	// (seconds, not microseconds).
	if el := v.Now().Sub(t0); el < 5*time.Second {
		t.Fatalf("installation took only %v of virtual time", el)
	}
	// The service deployment landed in the site container.
	if !s.Site().HasService("WS-JPOVray") {
		t.Fatal("WS-JPOVray not hosted")
	}
	// A second request needs no deployment: answers immediately from ADR.
	again, err := s.GetDeployments("ImageConversion", MethodExpect, false)
	if err != nil || len(again) != len(deps) {
		t.Fatalf("second request: %v %v", again, err)
	}
}

func TestGetDeploymentsUnknownType(t *testing.T) {
	s, _ := single(t)
	if _, err := s.GetDeployments("NoSuchThing", MethodExpect, true); err == nil {
		t.Fatal("unknown type must fail")
	}
}

func TestBaseCycleBreaksNoUnrelatedResolution(t *testing.T) {
	s, v := single(t)
	if _, err := s.RegisterType(&activity.Type{Name: "Good"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterDeployment(&activity.Deployment{Name: "good", Type: "Good",
		Kind: activity.KindExecutable, Path: "/opt/good/bin/good"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterType(&activity.Type{Name: "A", Base: []string{"B"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterType(&activity.Type{Name: "B", Base: []string{"A"}}); err == nil {
		t.Fatal("B extends A extends B was accepted")
	}
	// Replay installs documents without asking Register.
	s.ATR.Home().Restore("B", (&activity.Type{Name: "B", Base: []string{"A"}}).ToXML(), v.Now(), time.Time{})
	deps, err := s.GetDeployments("Good", MethodExpect, false)
	if err != nil || len(deps) != 1 || deps[0].Name != "good" {
		t.Fatalf("GetDeployments(Good) next to a cycle = %v, %v", deps, err)
	}
	if types, err := s.ResolveConcrete("A"); err != nil || len(types) != 2 {
		t.Fatalf("ResolveConcrete(A) on the cycle = %v, %v", types, err)
	}
}

func TestGetDeploymentsNoDeployDisallowed(t *testing.T) {
	s, _ := single(t)
	registerImaging(t, s)
	_, err := s.GetDeployments("JPOVray", MethodExpect, false)
	if err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("err = %v", err)
	}
}

func TestManualModeNotifiesAdmin(t *testing.T) {
	s, _ := single(t)
	ty := &activity.Type{
		Name: "ManualApp",
		Installation: &activity.Installation{
			Mode:          activity.ModeManual,
			DeployFileURL: workload.DeployFileURL("Wien2k"),
		},
		Artifact: "Wien2k",
	}
	if _, err := s.RegisterType(ty); err != nil {
		t.Fatal(err)
	}
	_, err := s.GetDeployments("ManualApp", MethodExpect, true)
	if err == nil || !strings.Contains(err.Error(), "manual") {
		t.Fatalf("err = %v", err)
	}
	notices := s.Site().Notices()
	if len(notices) != 1 || !strings.Contains(notices[0].Subject, "manual installation") {
		t.Fatalf("notices = %v", notices)
	}
}

func TestConstraintMismatchRejectsLocalDeploy(t *testing.T) {
	s, _ := single(t)
	ty := &activity.Type{
		Name: "SolarisOnly",
		Installation: &activity.Installation{
			Mode:          activity.ModeOnDemand,
			Constraints:   activity.Constraints{OS: "Solaris"},
			DeployFileURL: workload.DeployFileURL("Wien2k"),
		},
		Artifact: "Wien2k",
	}
	s.RegisterType(ty)
	// No peers exist, so on-demand deployment has nowhere to go.
	if _, err := s.GetDeployments("SolarisOnly", MethodExpect, true); err == nil {
		t.Fatal("constraint mismatch must fail without eligible peers")
	}
}

func targetAttrs(name, os string, mhz, mem, procs, uptime int) site.Attributes {
	return site.Attributes{
		Name: name, ProcessorMHz: mhz, MemoryMB: mem, Processors: procs,
		UptimeHours: uptime, Platform: "Intel", OS: os, Arch: "32bit",
	}
}

type bestTargetCase struct {
	name  string
	sites []site.Attributes
	c     activity.Constraints
	want  string // "" = no eligible site
}

func checkBestTarget(t *testing.T, cases []bestTargetCase) {
	t.Helper()
	for _, c := range cases {
		got := ""
		if i := bestTarget(c.sites, c.c); i >= 0 {
			got = c.sites[i].Name
		}
		if got != c.want {
			t.Errorf("%s: best = %q, want %q", c.name, got, c.want)
		}
	}
}

// Sites that miss the platform, OS or architecture are never chosen.
func TestBestTargetFiltersByConstraints(t *testing.T) {
	small := targetAttrs("small", "Linux", 1000, 1024, 2, 100)
	mid := targetAttrs("mid", "Linux", 1500, 4096, 8, 100)
	big := targetAttrs("big", "Linux", 2000, 8192, 16, 100)
	solaris := targetAttrs("solaris", "Solaris", 3000, 16384, 32, 100)
	checkBestTarget(t, []bestTargetCase{
		{"none", nil, activity.Constraints{}, ""},
		{"os", []site.Attributes{small, big, solaris, mid}, activity.Constraints{OS: "Linux"}, "big"},
		{"os-only-match", []site.Attributes{small, solaris}, activity.Constraints{OS: "Solaris"}, "solaris"},
		{"platform", []site.Attributes{small, mid}, activity.Constraints{Platform: "Sparc"}, ""},
		{"arch", []site.Attributes{small, mid}, activity.Constraints{Arch: "64bit"}, ""},
		{"all-three", []site.Attributes{big, mid}, activity.Constraints{Platform: "Intel", OS: "Linux", Arch: "32bit"}, "big"},
	})
}

// Among eligible sites the largest capacity wins, uptime next, name last.
func TestBestTargetRanksByCapacity(t *testing.T) {
	small := targetAttrs("small", "Linux", 1000, 1024, 2, 100)
	mid := targetAttrs("mid", "Linux", 1500, 4096, 8, 100)
	solaris := targetAttrs("solaris", "Solaris", 3000, 16384, 32, 100)
	checkBestTarget(t, []bestTargetCase{
		{"any", []site.Attributes{small, solaris, mid}, activity.Constraints{}, "solaris"},
		{"capacity", []site.Attributes{small, mid}, activity.Constraints{}, "mid"},
		{"uptime", []site.Attributes{small, targetAttrs("old", "Linux", 1000, 1024, 2, 900)}, activity.Constraints{}, "old"},
		{"tie-by-name", []site.Attributes{targetAttrs("b", "Linux", 1000, 1024, 2, 100), targetAttrs("a", "Linux", 1000, 1024, 2, 100)}, activity.Constraints{}, "a"},
	})
}

// The SiteAttrs answer carries every field bestTarget ranks on, uptime
// included: what chooseTarget reads is what the peer holds.
func TestSiteAttrsRoundTrip(t *testing.T) {
	for _, a := range []site.Attributes{
		targetAttrs("agrid01", "Linux", 1250, 2048, 8, 237),
		targetAttrs("fresh", "Solaris", 3000, 16384, 32, 0),
		{},
	} {
		if got := attrsFromXML(attrsToXML(a)); got != a {
			t.Errorf("round trip of %+v = %+v", a, got)
		}
	}
}

func TestDeployMethodsProduceTable1Shape(t *testing.T) {
	s, _ := single(t)
	for _, ty := range workload.EvaluationTypes() {
		if _, err := s.RegisterType(ty); err != nil {
			t.Fatal(err)
		}
	}
	wien, _ := s.LookupType("Wien2k")
	expectRep, err := s.DeployLocal(wien, MethodExpect)
	if err != nil {
		t.Fatal(err)
	}
	// Tear down so the CoG run reinstalls.
	for _, d := range expectRep.Deployments {
		if err := s.Undeploy(d.Name); err != nil {
			t.Fatal(err)
		}
	}
	// The artifact grid retains the blob across Undeploy; drop it so the
	// CoG run pays the paper's calibrated transfer cost again.
	if s.cas != nil {
		for _, e := range s.cas.Holdings() {
			s.cas.Delete(e.Key)
		}
	}
	cogRep, err := s.DeployLocal(wien, MethodCoG)
	if err != nil {
		t.Fatal(err)
	}
	// Table 1 shape: CoG is slower in total, with larger method overhead
	// and larger communication cost.
	if cogRep.Timings.Total() <= expectRep.Timings.Total() {
		t.Fatalf("CoG total %v must exceed Expect total %v",
			cogRep.Timings.Total(), expectRep.Timings.Total())
	}
	if cogRep.Timings.MethodOverhead <= expectRep.Timings.MethodOverhead {
		t.Fatalf("CoG overhead %v vs Expect %v",
			cogRep.Timings.MethodOverhead, expectRep.Timings.MethodOverhead)
	}
	if cogRep.Timings.Communication <= expectRep.Timings.Communication {
		t.Fatalf("CoG comm %v vs Expect %v",
			cogRep.Timings.Communication, expectRep.Timings.Communication)
	}
	// Expect overhead matches the Table 1 calibration exactly (2,100 ms).
	if expectRep.Timings.MethodOverhead != 2100*time.Millisecond {
		t.Fatalf("expect overhead = %v", expectRep.Timings.MethodOverhead)
	}
}

func TestUndeployRemovesEverything(t *testing.T) {
	s, _ := single(t)
	registerImaging(t, s)
	deps, err := s.GetDeployments("JPOVray", MethodExpect, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deps {
		if err := s.Undeploy(d.Name); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ADR.ByType("JPOVray"); len(got) != 0 {
		t.Fatalf("registry still has %v", got)
	}
	if s.Site().HasService("WS-JPOVray") {
		t.Fatal("service still hosted")
	}
	if err := s.Undeploy("jpovray"); err == nil {
		t.Fatal("double undeploy must fail")
	}
}

func TestInstantiateRecordsMetricsAndHonorsLeases(t *testing.T) {
	s, _ := single(t)
	registerImaging(t, s)
	if _, err := s.GetDeployments("JPOVray", MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Instantiate("jpovray", "client-a", 0, "scene.pov"); err != nil {
		t.Fatal(err)
	}
	d, _ := s.ADR.Get("jpovray")
	if d.Metrics.Invocations != 1 || d.Metrics.LastInvocation.IsZero() {
		t.Fatalf("metrics = %+v", d.Metrics)
	}
	// Exclusive lease blocks unleased use and authorizes the holder.
	tk, err := s.Leases.Acquire("jpovray", "holder", "exclusive", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Instantiate("jpovray", "client-a", 0, ""); err == nil {
		t.Fatal("exclusive lease must block unleased use")
	}
	if err := s.Instantiate("jpovray", "holder", tk.ID, ""); err != nil {
		t.Fatalf("holder blocked: %v", err)
	}
	if err := s.Instantiate("jpovray", "intruder", tk.ID, ""); err == nil {
		t.Fatal("wrong client authorized")
	}
	// Service deployments are instantiable too.
	if err := s.Instantiate("WS-JPOVray", "client-a", 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Instantiate("ghost", "client-a", 0, ""); err == nil {
		t.Fatal("unknown deployment accepted")
	}
}

func TestStatusMonitorRemovesVanishedDeployments(t *testing.T) {
	s, _ := single(t)
	registerImaging(t, s)
	if _, err := s.GetDeployments("JPOVray", MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	alive, removed := s.CheckDeployments()
	if alive < 3 || len(removed) != 0 { // jpovray + java/javac + ant + WS
		t.Fatalf("alive=%d removed=%v", alive, removed)
	}
	// Damage the site: delete the jpovray binary.
	d, _ := s.ADR.Get("jpovray")
	s.Site().FS.Remove(d.Path)
	s.Site().UndeployService("WS-JPOVray")
	_, removed = s.CheckDeployments()
	got := map[string]bool{}
	for _, r := range removed {
		got[r] = true
	}
	if !got["jpovray"] || !got["WS-JPOVray"] {
		t.Fatalf("removed = %v", removed)
	}
}

func TestTypeExpiryCascadesToDeployments(t *testing.T) {
	s, v := single(t)
	registerImaging(t, s)
	if _, err := s.GetDeployments("JPOVray", MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	if err := s.ATR.SetTermination("JPOVray", v.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	v.Advance(2 * time.Minute)
	s.CheckDeployments() // sweeps expired types, cascade fires
	if _, ok := s.ATR.Lookup("JPOVray"); ok {
		t.Fatal("type survived expiry")
	}
	if got := s.ADR.ByType("JPOVray"); len(got) != 0 {
		t.Fatalf("deployments survived type expiry: %v", got)
	}
	// Java/Ant remain: only the expired type cascades.
	if len(s.ADR.ByType("Java")) == 0 {
		t.Fatal("unrelated deployments were removed")
	}
}

// TestTypeRemovalUnregistersFromIndices pins that a type leaving the ATR
// — by removal or by lifetime expiry — also leaves the site's local index
// and, through it, the community index upstream, so type churn does not
// leak index entries.
func TestTypeRemovalUnregistersFromIndices(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	st := site.New(site.Attributes{Name: "solo.uibk", OS: "Linux"}, v, site.StandardUniverse())
	local := mds.New("local", mds.DefaultIndex, v)
	community := mds.New("community", mds.CommunityIndex, v)
	local.AddUpstream(community)
	cfg := soloConfig(st, v)
	cfg.LocalIndex = local
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	registerImaging(t, s)
	baseLocal, baseCommunity := local.Len(), community.Len()

	const n = 10
	for i := 0; i < n; i++ {
		if _, err := s.RegisterType(&activity.Type{Name: fmt.Sprintf("Churn%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if local.Len() != baseLocal+n || community.Len() != baseCommunity+n {
		t.Fatalf("after registering %d types: local %d, community %d; want %d, %d",
			n, local.Len(), community.Len(), baseLocal+n, baseCommunity+n)
	}
	// Half go by removal, half by expiry.
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("Churn%02d", i)
		if i%2 == 0 {
			if !s.ATR.Remove(name) {
				t.Fatalf("remove %s failed", name)
			}
		} else if err := s.ATR.SetTermination(name, v.Now().Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	v.Advance(2 * time.Minute)
	s.CheckDeployments() // sweeps the expired half
	if local.Len() != baseLocal || community.Len() != baseCommunity {
		t.Fatalf("after removing and expiring them: local %d, community %d; want %d, %d",
			local.Len(), community.Len(), baseLocal, baseCommunity)
	}
}

func TestLoadTrackerCountsRequests(t *testing.T) {
	s, _ := single(t)
	registerImaging(t, s)
	if s.runQueue.Value() != 0 {
		t.Fatal("queue not empty at rest")
	}
	s.GetDeployments("JPOVray", MethodExpect, false) // errors, but still tracked
	if s.runQueue.Value() != 0 {
		t.Fatal("queue leaked")
	}
}

func TestRegisterDeploymentDefaultsSite(t *testing.T) {
	s, _ := single(t)
	d := &activity.Deployment{
		Name: "preinstalled", Type: "Legacy", Kind: activity.KindExecutable, Path: "/opt/x/bin/x",
	}
	if _, err := s.RegisterDeployment(d); err != nil {
		t.Fatal(err)
	}
	got, _ := s.ADR.Get("preinstalled")
	if got.Site != "solo.uibk" {
		t.Fatalf("site = %q", got.Site)
	}
	// Dynamic type registration happened.
	if _, ok := s.ATR.Lookup("Legacy"); !ok {
		t.Fatal("dynamic type registration missing")
	}
}

func TestMigrateWithoutPeersFails(t *testing.T) {
	s, _ := single(t)
	registerImaging(t, s)
	if _, err := s.GetDeployments("JPOVray", MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Migrate("jpovray", MethodExpect); err == nil {
		t.Fatal("migration without peers must fail")
	}
	// The deployment must still be there (migration failed before
	// undeploy).
	if _, ok := s.ADR.Get("jpovray"); !ok {
		t.Fatal("failed migration lost the deployment")
	}
}

func TestDeploymentFloorSelfHeals(t *testing.T) {
	s, _ := single(t)
	registerImaging(t, s)
	// Publish a type with a minimum-deployments floor of 1.
	floorType := &activity.Type{
		Name:           "FloorApp",
		MinDeployments: 1,
		Installation: &activity.Installation{
			Mode:          activity.ModeOnDemand,
			DeployFileURL: workload.DeployFileURL("Wien2k"),
		},
		Artifact: "Wien2k",
	}
	if _, err := s.RegisterType(floorType); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetDeployments("FloorApp", MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	before := len(s.ADR.ByType("FloorApp"))
	if before == 0 {
		t.Fatal("nothing deployed")
	}
	// Sabotage every deployment of the type: binaries vanish.
	for _, d := range s.ADR.ByType("FloorApp") {
		s.Site().FS.Remove(d.Path)
	}
	// One monitor pass removes the corpses AND restores the floor.
	_, removed := s.CheckDeployments()
	if len(removed) == 0 {
		t.Fatal("vanished deployments not detected")
	}
	after := s.ADR.ByType("FloorApp")
	if len(after) < floorType.MinDeployments {
		t.Fatalf("floor not restored: %d deployments", len(after))
	}
	for _, d := range after {
		if e := s.Site().FS.Stat(d.Path); e == nil {
			t.Fatalf("restored deployment %s has no binary", d.Name)
		}
	}
}

func TestFloorIgnoresManualAndForeignTypes(t *testing.T) {
	s, _ := single(t)
	// Manual-mode type with a floor: never auto-restored.
	s.RegisterType(&activity.Type{
		Name: "ManualFloor", MinDeployments: 1,
		Installation: &activity.Installation{
			Mode:          activity.ModeManual,
			DeployFileURL: workload.DeployFileURL("Wien2k"),
		},
		Artifact: "Wien2k",
	})
	if restored := s.EnforceDeploymentFloor(); len(restored) != 0 {
		t.Fatalf("manual type restored: %v", restored)
	}
	// A type never deployed on this site is someone else's to heal.
	s.RegisterType(&activity.Type{
		Name: "ElsewhereFloor", MinDeployments: 1,
		Installation: &activity.Installation{
			Mode:          activity.ModeOnDemand,
			DeployFileURL: workload.DeployFileURL("Wien2k"),
		},
		Artifact: "Wien2k",
	})
	if restored := s.EnforceDeploymentFloor(); len(restored) != 0 {
		t.Fatalf("foreign type restored: %v", restored)
	}
}

func TestDeployFailsOnMissingDeployFile(t *testing.T) {
	s, _ := single(t)
	s.RegisterType(&activity.Type{
		Name: "Broken",
		Installation: &activity.Installation{
			Mode:          activity.ModeOnDemand,
			DeployFileURL: "http://nowhere/broken.build",
		},
	})
	if _, err := s.GetDeployments("Broken", MethodExpect, true); err == nil {
		t.Fatal("missing deploy-file accepted")
	}
}

func TestDeployFailureNotifiesAdmin(t *testing.T) {
	s, _ := single(t)
	// A type whose deploy-file downloads a nonexistent artifact: the
	// installation fails mid-way and the administrator is notified with a
	// pointer to the provider.
	bad := &activity.Type{
		Name: "BadDownload",
		Installation: &activity.Installation{
			Mode:          activity.ModeOnDemand,
			DeployFileURL: "http://provider/baddownload.build",
		},
	}
	s.RegisterType(bad)
	build, err := deployfile.ParseString(`
<Build name="BadDownload" baseDir="/tmp/bad">
  <Step name="Init" task="mkdir-p"><Property name="argument" value="/tmp/bad"/></Step>
  <Step name="Download" depends="Init" task="globus-url-copy">
    <Property name="source" value="http://nowhere/ghost.tgz"/>
    <Property name="destination" value="file:///tmp/bad/ghost.tgz"/>
  </Step>
</Build>`)
	if err != nil {
		t.Fatal(err)
	}
	resolver := workload.NewResolver(s.Site().Repo)
	resolver.Publish("http://provider/baddownload.build", build)
	cfg := soloConfig(s.Site(), s.Clock())
	cfg.DeployFiles = resolver.Fetch
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	s2.RegisterType(bad)
	if _, err := s2.DeployLocal(bad, MethodExpect); err == nil {
		t.Fatal("broken download accepted")
	}
	notices := s2.Site().Notices()
	if len(notices) == 0 || !strings.Contains(notices[len(notices)-1].Body, "provider") {
		t.Fatalf("admin not notified usefully: %v", notices)
	}
}

func TestDeployFailsOnCorruptDownload(t *testing.T) {
	s, _ := single(t)
	resolver := workload.NewResolver(s.Site().Repo)
	// Corrupt the declared checksums in a synthesized deploy-file (both
	// algorithms — ChecksumOfStep prefers sha256 when present).
	a, _ := s.Site().Repo.ByName("Ant")
	build := workload.SynthesizeBuild(a)
	for i := range build.Steps {
		for j := range build.Steps[i].Props {
			switch build.Steps[i].Props[j].Name {
			case "md5sum", "sha256sum":
				build.Steps[i].Props[j].Value = "corrupted"
			}
		}
	}
	resolver.Publish("http://provider/ant-corrupt.build", build)
	cfg := soloConfig(s.Site(), s.Clock())
	cfg.DeployFiles = resolver.Fetch
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	ty := &activity.Type{
		Name: "CorruptAnt",
		Installation: &activity.Installation{
			Mode:          activity.ModeOnDemand,
			DeployFileURL: "http://provider/ant-corrupt.build",
		},
		Artifact: "Ant",
	}
	s2.RegisterType(ty)
	if _, err := s2.DeployLocal(ty, MethodExpect); err == nil ||
		!strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("corrupt download: %v", err)
	}
}

// TestNewRequiresAgentClientAndIndex: every site runs its overlay agent,
// transport client and local index, so a config missing any of them is
// refused at assembly rather than carried as a reduced service.
func TestNewRequiresAgentClientAndIndex(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	st := site.New(site.Attributes{Name: "solo.uibk"}, v, site.StandardUniverse())
	for _, tc := range []struct {
		name string
		drop func(*Config)
	}{
		{"site", func(c *Config) { c.Site = nil }},
		{"agent", func(c *Config) { c.Agent = nil }},
		{"client", func(c *Config) { c.Client = nil }},
		{"local index", func(c *Config) { c.LocalIndex = nil }},
	} {
		cfg := soloConfig(st, v)
		tc.drop(&cfg)
		if s, err := New(cfg); err == nil {
			s.Stop()
			t.Errorf("New without %s: no error", tc.name)
		}
	}
	s, err := New(soloConfig(st, v))
	if err != nil {
		t.Fatalf("New with every dependency: %v", err)
	}
	s.Stop()
}
