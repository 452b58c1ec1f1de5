package enactor

import (
	"strings"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/agwl"
	"glare/internal/rdm"
	"glare/internal/simclock"
	"glare/internal/vo"
)

// fixture builds a VO plus an engine homed at site 0.
func fixture(t *testing.T, sites int, lookAhead bool) (*vo.VO, *Engine) {
	t.Helper()
	v, err := vo.Build(vo.Options{Sites: sites, GroupSize: sites})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	if err := v.RegisterImagingStack(0); err != nil {
		t.Fatal(err)
	}
	siteMap := map[string]*rdm.Service{}
	for _, n := range v.Nodes {
		siteMap[n.Info.Name] = n.RDM
	}
	e := &Engine{
		Home:      v.Nodes[0].RDM,
		Sites:     siteMap,
		FTP:       v.Nodes[0].RDM.FTP,
		Clock:     v.Clock,
		LookAhead: lookAhead,
		Client:    "test",
	}
	return v, e
}

func povrayWorkflow(t *testing.T) *agwl.Workflow {
	t.Helper()
	w, err := agwl.ParseString(`
<Workflow name="povray">
  <Activity name="render" type="ImageConversion">
    <Input name="scene" source="user:scene.pov"/>
    <Output name="image"/>
  </Activity>
  <Activity name="view" type="POVray">
    <Input name="image" source="render:image"/>
  </Activity>
</Workflow>`)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunSimpleWorkflow(t *testing.T) {
	_, e := fixture(t, 2, false)
	rep, err := e.Run(povrayWorkflow(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placements) != 2 {
		t.Fatalf("placements = %+v", rep.Placements)
	}
	for _, p := range rep.Placements {
		if p.Site == "" || p.Deployment == "" {
			t.Fatalf("incomplete placement %+v", p)
		}
	}
	if rep.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	// The deployment metrics were recorded by instantiation.
	home := e.Home
	found := false
	for _, d := range home.ADR.All() {
		if d.Metrics.Invocations > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no invocation metrics recorded")
	}
}

func TestDiamondWorkflowStagesDataAcrossActivities(t *testing.T) {
	_, e := fixture(t, 2, false)
	w, err := agwl.ParseString(`
<Workflow name="diamond">
  <Activity name="a" type="JPOVray"><Output name="o"/></Activity>
  <Activity name="b" type="JPOVray"><Input name="i" source="a:o"/><Output name="o"/></Activity>
  <Activity name="c" type="JPOVray"><Input name="i" source="a:o"/><Output name="o"/></Activity>
  <Activity name="d" type="JPOVray"><Input name="x" source="b:o"/><Input name="y" source="c:o"/></Activity>
</Workflow>`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Placements) != 4 {
		t.Fatalf("placements = %d", len(rep.Placements))
	}
	// All activities used the same deployment site here, so no inter-site
	// moves were needed; outputs must exist on that site.
	siteSvc := e.Sites[rep.Placements[0].Site]
	if !siteSvc.Site().FS.Exists("/scratch/diamond/a/o") {
		t.Fatal("output not materialized")
	}
}

func TestWorkflowFailsOnUnknownType(t *testing.T) {
	_, e := fixture(t, 1, false)
	w, err := agwl.ParseString(`
<Workflow name="broken">
  <Activity name="x" type="NoSuchType"/>
</Workflow>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(w); err == nil || !strings.Contains(err.Error(), "NoSuchType") {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryOnFailedDeployment(t *testing.T) {
	v, e := fixture(t, 1, false)
	// Deploy JPOVray, then sabotage the preferred executable so the first
	// instantiation fails; the engine must retry with the WS deployment.
	if _, err := e.Home.GetDeployments("JPOVray", rdm.MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	d, ok := e.Home.ADR.Get("jpovray")
	if !ok {
		t.Fatal("jpovray missing")
	}
	v.Nodes[0].Site.FS.Remove(d.Path) // the binary vanishes; registry still lists it
	w, err := agwl.ParseString(`
<Workflow name="retry">
  <Activity name="r" type="JPOVray"/>
</Workflow>`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(w)
	if err != nil {
		t.Fatalf("run with retry failed: %v", err)
	}
	p := rep.Placements[0]
	if !p.Retried {
		t.Fatal("retry not recorded")
	}
	if p.Deployment != "WS-JPOVray" {
		t.Fatalf("fallback deployment = %s", p.Deployment)
	}
}

func TestDefaultSelector(t *testing.T) {
	mk := func(name string, kind activity.DeploymentKind, exec time.Duration) *activity.Deployment {
		return &activity.Deployment{
			Name: name, Type: "T", Kind: kind, Path: "/x", Address: "http://x",
			Metrics: activity.Metrics{LastExecutionTime: exec},
		}
	}
	if DefaultSelector(nil) != nil {
		t.Fatal("empty candidates must yield nil")
	}
	// Executables beat services.
	got := DefaultSelector([]*activity.Deployment{
		mk("svc", activity.KindService, time.Second),
		mk("exe", activity.KindExecutable, 2*time.Second),
	})
	if got.Name != "exe" {
		t.Fatalf("selector chose %s", got.Name)
	}
	// Among executables, the fastest last execution wins; unknown is worst.
	got = DefaultSelector([]*activity.Deployment{
		mk("slow", activity.KindExecutable, 3*time.Second),
		mk("fast", activity.KindExecutable, time.Second),
		mk("unknown", activity.KindExecutable, 0),
	})
	if got.Name != "fast" {
		t.Fatalf("selector chose %s", got.Name)
	}
}

func TestLookAheadReducesMakespan(t *testing.T) {
	// Neither stage's type is deployed yet: without look-ahead the two
	// installations serialize (stage one's, then stage two's); with
	// look-ahead both start at submission time and overlap, so the
	// makespan approaches the longer of the two instead of their sum.
	// The scaled clock preserves real concurrency. It runs 100x rather than
	// 1000x: every real millisecond the host spends elsewhere lands in the
	// makespan multiplied by the factor, and at 1000x a 10 ms stall on a
	// loaded host is the whole 20% margin.
	run := func(lookAhead bool) time.Duration {
		clock := simclock.NewScaled(100)
		v, err := vo.Build(vo.Options{Sites: 1, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if err := v.RegisterImagingStack(0); err != nil {
			t.Fatal(err)
		}
		if err := v.RegisterEvaluationApps(0); err != nil {
			t.Fatal(err)
		}
		e := &Engine{
			Home:      v.Nodes[0].RDM,
			Sites:     map[string]*rdm.Service{v.Nodes[0].Info.Name: v.Nodes[0].RDM},
			FTP:       v.Nodes[0].RDM.FTP,
			Clock:     clock,
			LookAhead: lookAhead,
		}
		w, err := agwl.ParseString(`
<Workflow name="two-stage">
  <Activity name="one" type="JPOVray"><Output name="o"/></Activity>
  <Activity name="two" type="Wien2k"><Input name="i" source="one:o"/></Activity>
</Workflow>`)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	with := run(true)
	without := run(false)
	// Demand a clear win, not a scheduling accident: the overlapped run
	// must be at least 20% faster.
	if float64(with) >= 0.8*float64(without) {
		t.Fatalf("look-ahead makespan %v must clearly beat %v", with, without)
	}
}
