package vo

import (
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/rdm"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/workload"
	"glare/internal/xmlutil"
)

func buildVO(t *testing.T, opts Options) *VO {
	t.Helper()
	v, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	return v
}

func TestBuildAndElection(t *testing.T) {
	v := buildVO(t, Options{Sites: 7, GroupSize: 3})
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	supers := 0
	for _, n := range v.Nodes {
		switch n.Agent.Role() {
		case superpeer.RoleSuperPeer:
			supers++
		case superpeer.RoleMember:
		default:
			t.Fatalf("%s unassigned after election", n.Info.Name)
		}
	}
	if supers < 2 { // 7 sites / group size 4 (default) or 3 -> >=2 groups
		t.Fatalf("super-peers = %d", supers)
	}
	// Election is idempotent per coordinator.
	if err := v.Nodes[0].RDM.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

func TestCommunityIndexSeesAllSites(t *testing.T) {
	v := buildVO(t, Options{Sites: 5})
	sites := v.Nodes[0].RDM.CommunitySites()
	if len(sites) != 5 {
		t.Fatalf("community sites = %d", len(sites))
	}
}

func TestCrossSiteTypeDiscovery(t *testing.T) {
	v := buildVO(t, Options{Sites: 4, GroupSize: 4})
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	// Register the imaging stack on site 2 only.
	if err := v.RegisterImagingStack(2); err != nil {
		t.Fatal(err)
	}
	// A client of site 1 resolves the abstract type through the overlay.
	types, err := v.Nodes[1].RDM.ResolveConcrete("ImageConversion")
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != 1 || types[0].Name != "JPOVray" {
		t.Fatalf("resolved %v", types)
	}
}

func TestCrossGroupDiscoveryViaSuperPeers(t *testing.T) {
	// Two groups: discovery must traverse super-peer forwarding.
	v := buildVO(t, Options{Sites: 6, GroupSize: 3})
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	// Find two sites in different groups.
	var a, b int = -1, -1
	viewOf := func(i int) superpeer.View { return v.Nodes[i].Agent.View() }
	for i := 1; i < len(v.Nodes) && b < 0; i++ {
		if a < 0 {
			a = i
			continue
		}
		if !viewOf(a).Member(v.Nodes[i].Info.Name) {
			b = i
		}
	}
	if a < 0 || b < 0 {
		t.Skip("all sites landed in one group")
	}
	if err := v.RegisterImagingStack(a); err != nil {
		t.Fatal(err)
	}
	types, err := v.Nodes[b].RDM.ResolveConcrete("POVray")
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != 1 || types[0].Name != "JPOVray" {
		t.Fatalf("cross-group resolution got %v", types)
	}
}

func TestOnDemandDeploymentAcrossSites(t *testing.T) {
	v := buildVO(t, Options{Sites: 3, GroupSize: 3})
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	if err := v.RegisterImagingStack(0); err != nil {
		t.Fatal(err)
	}
	// Scheduler at site 1 requests deployments; GLARE deploys on demand.
	deps, err := v.Nodes[1].RDM.GetDeployments("ImageConversion", rdm.MethodExpect, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) == 0 {
		t.Fatal("no deployments returned")
	}
	// The installation happened on site 1 itself (it satisfies the
	// constraints) and is discoverable from other sites now.
	found, err := v.Nodes[2].RDM.GetDeployments("ImageConversion", rdm.MethodExpect, false)
	if err != nil {
		t.Fatalf("site 2 discovery: %v", err)
	}
	if len(found) == 0 {
		t.Fatal("deployment not visible VO-wide")
	}
}

func TestCachingAcceleratesRepeatLookups(t *testing.T) {
	v := buildVO(t, Options{Sites: 3, GroupSize: 3})
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	v.RegisterImagingStack(0)
	if _, err := v.Nodes[0].RDM.GetDeployments("JPOVray", rdm.MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	// First remote lookup misses the cache, second hits it.
	svc := v.Nodes[1].RDM
	if _, err := svc.GetDeployments("JPOVray", rdm.MethodExpect, false); err != nil {
		t.Fatal(err)
	}
	_, depsStats := svc.CacheStats()
	if depsStats.Misses == 0 {
		t.Fatal("expected at least one miss")
	}
	if _, err := svc.GetDeployments("JPOVray", rdm.MethodExpect, false); err != nil {
		t.Fatal(err)
	}
	_, after := svc.CacheStats()
	if after.Hits <= depsStats.Hits {
		t.Fatalf("no cache hits: before %+v after %+v", depsStats, after)
	}
}

func TestCacheDisabledConfig(t *testing.T) {
	v := buildVO(t, Options{Sites: 2, GroupSize: 2, CacheDisabled: true})
	v.ElectSuperPeers()
	v.RegisterImagingStack(0)
	if _, err := v.Nodes[0].RDM.GetDeployments("JPOVray", rdm.MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	svc := v.Nodes[1].RDM
	svc.GetDeployments("JPOVray", rdm.MethodExpect, false)
	svc.GetDeployments("JPOVray", rdm.MethodExpect, false)
	_, st := svc.CacheStats()
	if st.Hits != 0 {
		t.Fatalf("cache disabled but %d hits", st.Hits)
	}
}

func TestCacheRefreshRevivesUpdatedDeployment(t *testing.T) {
	v := buildVO(t, Options{Sites: 2, GroupSize: 2, CacheTTL: time.Hour})
	v.ElectSuperPeers()
	v.RegisterImagingStack(0)
	if _, err := v.Nodes[0].RDM.GetDeployments("JPOVray", rdm.MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	// Site 1 caches site 0's deployment.
	svc := v.Nodes[1].RDM
	cached, err := svc.GetDeployments("JPOVray", rdm.MethodExpect, false)
	if err != nil {
		t.Fatal(err)
	}
	calls := func(op string) uint64 {
		return v.Nodes[1].Tel.Counter("glare_rpc_client_requests_total", telemetry.L("op", op)).Value()
	}
	// A status pass on the source writes nothing, so its LUTs stay put
	// and the refresher re-fetches nothing.
	v.Clock.(interface{ Advance(time.Duration) }).Advance(time.Second)
	v.Nodes[0].RDM.CheckDeployments()
	gets := calls("Get")
	if revived, _ := svc.RefreshCaches(); revived != 0 || calls("Get") != gets {
		t.Fatalf("refresh after a status pass revived %d entries with %d Get calls, want 0 and 0", revived, calls("Get")-gets)
	}
	// A real update on site 0 moves that deployment's LUT.
	v.Clock.(interface{ Advance(time.Duration) }).Advance(time.Second)
	dep, ok := v.Nodes[0].RDM.ADR.Get(cached[0].Name)
	if !ok {
		t.Fatalf("%s is not deployed on site 0", cached[0].Name)
	}
	if err := v.Nodes[0].RDM.ADR.UpdateMetrics(dep.Name, activity.Metrics{Invocations: dep.Metrics.Invocations + 1}); err != nil {
		t.Fatal(err)
	}
	luts, gets := calls("GetLUT"), calls("Get")
	revived, _ := svc.RefreshCaches()
	if revived != 1 {
		t.Fatalf("refresh revived %d entries, want the 1 updated deployment", revived)
	}
	// One probe per cached deployment, and one fetch per revival, stamped
	// with the LUT that probe read: no second probe.
	if n := calls("GetLUT") - luts; n != uint64(len(cached)) {
		t.Errorf("refresh made %d GetLUT calls, want one per cached deployment (%d)", n, len(cached))
	}
	if n := calls("Get") - gets; n != uint64(revived) {
		t.Errorf("refresh made %d Get calls, want one per revived deployment (%d)", n, revived)
	}
}

func TestSecureVO(t *testing.T) {
	v := buildVO(t, Options{Sites: 2, GroupSize: 2, Secure: true})
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	v.RegisterImagingStack(0)
	types, err := v.Nodes[1].RDM.ResolveConcrete("POVray")
	if err != nil || len(types) != 1 {
		t.Fatalf("secure resolution: %v %v", types, err)
	}
	for _, n := range v.Nodes {
		if !n.Server.Secure() {
			t.Fatal("server not secure")
		}
	}
}

func TestSuperPeerFailover(t *testing.T) {
	v := buildVO(t, Options{Sites: 4, GroupSize: 4})
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	// Identify the super-peer and a member.
	spName := v.Nodes[0].Agent.View().SuperPeer.Name
	var spIdx = -1
	for i, n := range v.Nodes {
		if n.Info.Name == spName {
			spIdx = i
		}
	}
	if spIdx < 0 {
		t.Fatal("super-peer not found")
	}
	v.StopSite(spIdx)
	if !v.Stopped(spIdx) {
		t.Fatal("stop not recorded")
	}
	// Any surviving member detects and initiates recovery.
	var member *Node
	for i, n := range v.Nodes {
		if i != spIdx {
			member = n
			break
		}
	}
	for i := 0; i < superpeer.DefaultSuspicionThreshold; i++ {
		if _, err := member.RDM.Agent().DetectAndRecover(); err != nil {
			t.Fatal(err)
		}
	}
	// Eventually a new super-peer reigns.
	deadline := time.After(5 * time.Second)
	for {
		newSP := member.Agent.View().SuperPeer.Name
		if newSP != spName && newSP != "" {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no new super-peer elected")
		case <-time.After(20 * time.Millisecond):
		}
	}
	// Discovery still works among survivors ("If some sites or services
	// fail, the rest of the GLARE system continues working").
	var reg *Node
	for i, n := range v.Nodes {
		if i != spIdx {
			reg = n
			break
		}
	}
	for _, ty := range []int{0} {
		_ = ty
	}
	if err := v.RegisterImagingStack(indexOf(v, reg)); err != nil {
		t.Fatal(err)
	}
	for i, n := range v.Nodes {
		if i == spIdx || n == reg {
			continue
		}
		types, err := n.RDM.ResolveConcrete("POVray")
		if err != nil || len(types) == 0 {
			t.Fatalf("survivor %s cannot resolve: %v %v", n.Info.Name, types, err)
		}
	}
}

func workloadEvaluationType(t *testing.T, name string) *activity.Type {
	t.Helper()
	for _, ty := range workload.EvaluationTypes() {
		if ty.Name == name {
			return ty
		}
	}
	t.Fatalf("no evaluation type %q", name)
	return nil
}

func indexOf(v *VO, target *Node) int {
	for i, n := range v.Nodes {
		if n == target {
			return i
		}
	}
	return -1
}

func TestRemoteClientProtocol(t *testing.T) {
	v := buildVO(t, Options{Sites: 2, GroupSize: 2})
	v.ElectSuperPeers()
	v.RegisterImagingStack(0)
	// Drive the whole flow through the wire protocol, like glarectl does.
	url := v.Nodes[1].Info.ServiceURL(rdm.ServiceName)
	req := xmlutil.NewNode("Request")
	req.SetAttr("type", "ImageConversion")
	req.SetAttr("deploy", "auto")
	resp, err := v.Client.Call(url, "GetDeployments", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.All("ActivityDeployment")) == 0 {
		t.Fatalf("no deployments over the wire: %s", resp)
	}
	// Lease over the wire.
	lr := xmlutil.NewNode("Lease")
	lr.SetAttr("deployment", "jpovray")
	lr.SetAttr("client", "wire-client")
	lr.SetAttr("kind", "exclusive")
	lr.SetAttr("seconds", "3600")
	tk, err := v.Client.Call(v.Nodes[1].Info.ServiceURL(rdm.ServiceName), "AcquireLease", lr)
	if err != nil {
		t.Fatal(err)
	}
	if tk.AttrOr("id", "") == "" {
		t.Fatalf("ticket = %s", tk)
	}
	// Instantiate with the ticket.
	inst := xmlutil.NewNode("Run")
	inst.SetAttr("name", "jpovray")
	inst.SetAttr("client", "wire-client")
	inst.SetAttr("ticket", tk.AttrOr("id", ""))
	if _, err := v.Client.Call(url, "Instantiate", inst); err != nil {
		t.Fatal(err)
	}
	// Release.
	if _, err := v.Client.Call(url, "ReleaseLease",
		xmlutil.NewNode("ID", tk.AttrOr("id", ""))); err != nil {
		t.Fatal(err)
	}
}

func TestTable1CostsShapeAcrossVO(t *testing.T) {
	v := buildVO(t, Options{Sites: 1})
	svc := v.Nodes[0].RDM
	// The type arrives with the deployment request (it is new to this
	// site), so "Activity Type Addition" is charged.
	wien := workloadEvaluationType(t, "Wien2k")
	rep, err := svc.DeployLocal(wien, rdm.MethodExpect)
	if err != nil {
		t.Fatal(err)
	}
	tt := rep.Timings
	// Ballpark row checks against Table 1 (virtual ms).
	if tt.TypeAddition < 400*time.Millisecond || tt.TypeAddition > time.Second {
		t.Fatalf("type addition = %v", tt.TypeAddition)
	}
	if tt.Registration < 200*time.Millisecond || tt.Registration > time.Second {
		t.Fatalf("registration = %v", tt.Registration)
	}
	if tt.Notification < 200*time.Millisecond || tt.Notification > time.Second {
		t.Fatalf("notification = %v", tt.Notification)
	}
	if tt.Installation < 3*time.Second {
		t.Fatalf("installation = %v", tt.Installation)
	}
	if tt.Total() < 5*time.Second {
		t.Fatalf("total = %v", tt.Total())
	}
}

func TestBrokerPicksHighestCapacityPeer(t *testing.T) {
	// One group of four sites. Capacities (from siteAttrs): site i has
	// 4*(1+i%3) processors at 1000+250*i MHz — agrid03 (index 2) scores
	// highest among site 0's peers, so migration must land there.
	v := buildVO(t, Options{Sites: 4, GroupSize: 4})
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	if err := v.RegisterEvaluationApps(0); err != nil {
		t.Fatal(err)
	}
	wien, _ := v.Nodes[0].RDM.LookupType("Wien2k")
	rep, err := v.Nodes[0].RDM.DeployLocal(wien, rdm.MethodExpect)
	if err != nil {
		t.Fatal(err)
	}
	mig, err := v.Nodes[0].RDM.Migrate(rep.Deployments[0].Name, rdm.MethodExpect)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Site != v.Nodes[2].Info.Name {
		t.Fatalf("broker chose %s, want %s", mig.Site, v.Nodes[2].Info.Name)
	}
}
