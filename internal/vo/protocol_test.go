package vo

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"glare/internal/rdm"
	"glare/internal/transport"
	"glare/internal/xmlutil"
)

// call is a helper hitting a node's RDM operation over the wire.
func call(t *testing.T, v *VO, node int, op string, body *xmlutil.Node) (*xmlutil.Node, error) {
	t.Helper()
	return v.Client.Call(v.Nodes[node].Info.ServiceURL(rdm.ServiceName), op, body)
}

// resolveReq builds a Resolve request for name at the given scope.
func resolveReq(name, scope string) *xmlutil.Node {
	req := xmlutil.NewNode("Resolve")
	req.SetAttr("name", name)
	req.SetAttr("scope", scope)
	return req
}

func TestSiteAttrsOverWire(t *testing.T) {
	v := buildVO(t, Options{Sites: 1})
	resp, err := call(t, v, 0, "SiteAttrs", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.AttrOr("platform", "") != "Intel" || resp.AttrOr("os", "") != "Linux" {
		t.Fatalf("attrs = %s", resp)
	}
	if resp.AttrOr("name", "") == "" {
		t.Fatal("missing site name")
	}
	// The broker ranks peers on uptime too (bestTarget).
	if got, want := resp.AttrOr("uptimeHours", ""), strconv.Itoa(v.Nodes[0].Site.Attrs.UptimeHours); got != want || want == "0" {
		t.Fatalf("uptimeHours = %q, want %q", got, want)
	}
}

func TestGroupAndForwardOpsOverWire(t *testing.T) {
	v := buildVO(t, Options{Sites: 4, GroupSize: 2}) // two groups
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	if err := v.RegisterImagingStack(3); err != nil {
		t.Fatal(err)
	}
	// Ask a super-peer to resolve from its group (scope "group") and
	// across groups (scope "vo"); both answer the concrete type.
	spName := v.Nodes[3].Agent.View().SuperPeer.Name
	spIdx := -1
	for i, n := range v.Nodes {
		if n.Info.Name == spName {
			spIdx = i
		}
	}
	resp, err := call(t, v, spIdx, "Resolve", resolveReq("POVray", "group"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.All("ActivityTypeEntry")) != 1 {
		t.Fatalf("group resolution: %s", resp)
	}
	// From the OTHER group's super-peer, forwarding must find it too.
	var otherSP int = -1
	for i, n := range v.Nodes {
		if n.Agent.Role().String() == "SuperPeer" && n.Info.Name != spName {
			otherSP = i
		}
	}
	if otherSP < 0 {
		t.Skip("single group formed")
	}
	resp, err = call(t, v, otherSP, "Resolve", resolveReq("POVray", "vo"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.All("ActivityTypeEntry")) != 1 {
		t.Fatalf("forwarded resolution: %s", resp)
	}
}

func TestForwardDeploymentsOverWire(t *testing.T) {
	v := buildVO(t, Options{Sites: 4, GroupSize: 2})
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	v.RegisterImagingStack(0)
	if _, err := v.Nodes[0].RDM.GetDeployments("JPOVray", rdm.MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	// Any super-peer must aggregate the deployment via forwarding.
	for i, n := range v.Nodes {
		if n.Agent.Role().String() != "SuperPeer" {
			continue
		}
		resp, err := call(t, v, i, "Resolve", resolveReq("JPOVray", "vo"))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.All("ActivityDeployment")) == 0 {
			t.Fatalf("super-peer %s found nothing", n.Info.Name)
		}
	}
}

func TestRemoteNotificationSink(t *testing.T) {
	v := buildVO(t, Options{Sites: 1})
	// Stand up a sink container.
	sink := transport.NewServer()
	var mu sync.Mutex
	var got []string
	sink.Register("Sink", "Notify", func(body *xmlutil.Node) (*xmlutil.Node, error) {
		mu.Lock()
		got = append(got, body.AttrOr("producer", ""))
		mu.Unlock()
		return xmlutil.NewNode("OK"), nil
	})
	if err := sink.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	req := xmlutil.NewNode("Subscribe")
	req.SetAttr("topic", "Deployment")
	req.SetAttr("sink", sink.ServiceURL("Sink"))
	resp, err := call(t, v, 0, "Subscribe", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.AttrOr("id", "") == "" {
		t.Fatalf("subscription = %s", resp)
	}
	// Trigger a deployment; the sink must receive the event over HTTP.
	v.RegisterImagingStack(0)
	if _, err := v.Nodes[0].RDM.GetDeployments("JPOVray", rdm.MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sink never notified")
		case <-time.After(10 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(got, ",")
	if !strings.Contains(joined, "JPOVray") && !strings.Contains(joined, "Java") {
		t.Fatalf("producers = %v", got)
	}
}

func TestSearchTypesOverWire(t *testing.T) {
	v := buildVO(t, Options{Sites: 1})
	v.RegisterImagingStack(0)
	q := xmlutil.NewNode("Query")
	q.SetAttr("function", "render")
	q.SetAttr("concreteOnly", "true")
	resp, err := call(t, v, 0, "SearchTypes", q)
	if err != nil {
		t.Fatal(err)
	}
	matches := resp.All("Match")
	if len(matches) != 1 {
		t.Fatalf("matches = %s", resp)
	}
	score, err := strconv.ParseFloat(matches[0].AttrOr("score", ""), 64)
	if err != nil || score <= 0 {
		t.Fatalf("score = %q", matches[0].AttrOr("score", ""))
	}
	if matches[0].First("ActivityTypeEntry").AttrOr("name", "") != "JPOVray" {
		t.Fatalf("match = %s", matches[0])
	}
	// Port-constrained query over the wire.
	q2 := xmlutil.NewNode("Query")
	q2.Elem("Input", "scene.pov")
	q2.Elem("Output", "image.png")
	resp, err = call(t, v, 0, "SearchTypes", q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.All("Match")) == 0 {
		t.Fatal("port query found nothing")
	}
}

func TestWrapServiceOverWire(t *testing.T) {
	v := buildVO(t, Options{Sites: 1})
	v.RegisterEvaluationApps(0)
	v.RegisterImagingStack(0)
	wien, _ := v.Nodes[0].RDM.LookupType("Wien2k")
	if _, err := v.Nodes[0].RDM.DeployLocal(wien, rdm.MethodExpect); err != nil {
		t.Fatal(err)
	}
	resp, err := call(t, v, 0, "WrapService", xmlutil.NewNode("Name", "lapw1"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.AttrOr("name", "") != "WS-lapw1" || resp.AttrOr("category", "") != "service" {
		t.Fatalf("wrapper = %s", resp)
	}
	if _, err := call(t, v, 0, "WrapService", xmlutil.NewNode("Name", "nope")); err == nil {
		t.Fatal("wrapping unknown must fault")
	}
}

func TestDeployLocalByTypeNameOverWire(t *testing.T) {
	v := buildVO(t, Options{Sites: 1})
	v.RegisterImagingStack(0)
	req := xmlutil.NewNode("Deploy")
	req.SetAttr("type", "JPOVray") // by name, no inline type document
	resp, err := call(t, v, 0, "DeployLocal", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.All("ActivityDeployment")) == 0 || resp.First("Timings") == nil {
		t.Fatalf("deploy response = %s", resp)
	}
	// Unknown type by name faults.
	bad := xmlutil.NewNode("Deploy")
	bad.SetAttr("type", "Ghost")
	if _, err := call(t, v, 0, "DeployLocal", bad); err == nil {
		t.Fatal("unknown type must fault")
	}
}

func TestDiscoveryToleratesDeadPeer(t *testing.T) {
	v := buildVO(t, Options{Sites: 3, GroupSize: 3})
	if err := v.ElectSuperPeers(); err != nil {
		t.Fatal(err)
	}
	v.RegisterImagingStack(0)
	if _, err := v.Nodes[0].RDM.GetDeployments("JPOVray", rdm.MethodExpect, true); err != nil {
		t.Fatal(err)
	}
	// Kill a non-essential peer; discovery from the others must survive
	// ("If some sites or services fail, the rest of the GLARE system
	// continues working").
	spName := v.Nodes[1].Agent.View().SuperPeer.Name
	killed := -1
	for i, n := range v.Nodes {
		if i != 0 && n.Info.Name != spName {
			killed = i
			break
		}
	}
	if killed < 0 {
		t.Skip("no non-essential peer")
	}
	v.StopSite(killed)
	for i := range v.Nodes {
		if i == killed {
			continue
		}
		deps, err := v.Nodes[i].RDM.GetDeployments("JPOVray", rdm.MethodExpect, false)
		if err != nil || len(deps) == 0 {
			t.Fatalf("site %d discovery after peer death: %v %v", i, deps, err)
		}
	}
}
