package superpeer

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

// harness spins up n overlay agents on real loopback servers.
type harness struct {
	agents  []*Agent
	servers []*transport.Server
	infos   []SiteInfo
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	h := &harness{}
	cli := transport.NewClient(nil)
	for i := 0; i < n; i++ {
		srv := transport.NewServer()
		if err := srv.Start("127.0.0.1:0", nil); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		info := SiteInfo{
			Name: fmt.Sprintf("site%02d", i),
			// Deterministic ranks: site with highest index has highest rank.
			Rank:    uint64(1000 + i),
			BaseURL: srv.BaseURL(),
		}
		a := NewAgent(info, cli, wsrf.NewBroker(nil))
		a.Mount(srv)
		h.agents = append(h.agents, a)
		h.servers = append(h.servers, srv)
		h.infos = append(h.infos, info)
	}
	return h
}

func TestSiteInfoXMLRoundTrip(t *testing.T) {
	s := SiteInfo{Name: "a", Rank: 42, BaseURL: "http://h:1"}
	got, err := SiteInfoFromXML(s.ToXML())
	if err != nil || got != s {
		t.Fatalf("round trip: %+v %v", got, err)
	}
	if _, err := SiteInfoFromXML(nil); err == nil {
		t.Fatal("nil must fail")
	}
}

func TestViewXMLRoundTrip(t *testing.T) {
	v := View{
		Group:      []SiteInfo{{Name: "a", Rank: 2, BaseURL: "http://a"}, {Name: "b", Rank: 1, BaseURL: "http://b"}},
		SuperPeer:  SiteInfo{Name: "a", Rank: 2, BaseURL: "http://a"},
		SuperPeers: []SiteInfo{{Name: "a", Rank: 2, BaseURL: "http://a"}},
	}
	got, err := ViewFromXML(v.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if got.SuperPeer.Name != "a" || len(got.Group) != 2 || len(got.SuperPeers) != 1 {
		t.Fatalf("got %+v", got)
	}
	// Missing super-peer in group is invalid.
	bad := v
	bad.SuperPeer = SiteInfo{Name: "zz", Rank: 9}
	if _, err := ViewFromXML(bad.ToXML()); err == nil {
		t.Fatal("dangling super-peer accepted")
	}
}

func TestRankSites(t *testing.T) {
	sites := []SiteInfo{{Name: "b", Rank: 5}, {Name: "a", Rank: 5}, {Name: "c", Rank: 9}}
	ranked := RankSites(sites)
	if ranked[0].Name != "c" || ranked[1].Name != "a" || ranked[2].Name != "b" {
		t.Fatalf("ranked = %v", ranked)
	}
}

func TestPartitionGroups(t *testing.T) {
	var sites []SiteInfo
	for i := 0; i < 10; i++ {
		sites = append(sites, SiteInfo{Name: fmt.Sprintf("s%02d", i), Rank: uint64(i)})
	}
	views := PartitionGroups(sites, 4)
	if len(views) != 10 {
		t.Fatalf("views = %d", len(views))
	}
	// ceil(10/4) = 3 super-peers; the three highest-ranked sites.
	supers := map[string]bool{}
	for _, v := range views {
		supers[v.SuperPeer.Name] = true
		if len(v.SuperPeers) != 3 {
			t.Fatalf("super list = %v", v.SuperPeers)
		}
		// Every member's view contains its super-peer.
		if !v.Member(v.SuperPeer.Name) {
			t.Fatal("super-peer not in own group")
		}
	}
	if len(supers) != 3 || !supers["s09"] || !supers["s08"] || !supers["s07"] {
		t.Fatalf("supers = %v", supers)
	}
	// Each group has exactly one super-peer and sizes are balanced
	// (10 sites / 3 groups => sizes 3 or 4).
	sizes := map[string]int{}
	for name, v := range views {
		if views[v.SuperPeer.Name].SuperPeer.Name != v.SuperPeer.Name {
			t.Fatal("super-peer's own view disagrees")
		}
		if name == v.SuperPeer.Name {
			sizes[v.SuperPeer.Name] = len(v.Group)
		}
	}
	for sp, n := range sizes {
		if n < 3 || n > 4 {
			t.Fatalf("group %s size %d", sp, n)
		}
	}
}

func TestPartitionSingleSite(t *testing.T) {
	views := PartitionGroups([]SiteInfo{{Name: "only", Rank: 1}}, 4)
	v := views["only"]
	if v.SuperPeer.Name != "only" || len(v.Group) != 1 {
		t.Fatalf("view = %+v", v)
	}
}

func TestCoordinateAssignsAllSites(t *testing.T) {
	h := newHarness(t, 7)
	coord := h.agents[0]
	views, err := coord.Coordinate(h.infos, CoordinatorConfig{GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 7 {
		t.Fatalf("views = %d", len(views))
	}
	// Every agent must have received its view and role.
	superCount := 0
	for _, a := range h.agents {
		v := a.View()
		if v.SuperPeer.IsZero() {
			t.Fatalf("%s has no super-peer", a.Self().Name)
		}
		if a.Role() == RoleSuperPeer {
			superCount++
			if v.SuperPeer.Name != a.Self().Name {
				t.Fatal("super-peer role/view mismatch")
			}
		}
	}
	if superCount != 3 { // ceil(7/3)
		t.Fatalf("super-peers = %d", superCount)
	}
}

func TestCoordinateSkipsDeadSites(t *testing.T) {
	h := newHarness(t, 4)
	h.servers[2].Close() // site02 is down and cannot ack
	views, err := h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := views["site02"]; ok {
		t.Fatal("dead site assigned to a group")
	}
	if len(views) != 3 {
		t.Fatalf("views = %d", len(views))
	}
}

func TestCoordinateEmptyCommunity(t *testing.T) {
	h := newHarness(t, 1)
	if _, err := h.agents[0].Coordinate(nil, CoordinatorConfig{}); err == nil {
		t.Fatal("empty community must fail")
	}
}

func TestPing(t *testing.T) {
	h := newHarness(t, 2)
	if !h.agents[0].Ping(h.infos[1]) {
		t.Fatal("ping to live site failed")
	}
	h.servers[1].Close()
	if h.agents[0].Ping(h.infos[1]) {
		t.Fatal("ping to dead site succeeded")
	}
}

func TestFailureDetectionAndReelection(t *testing.T) {
	h := newHarness(t, 4)
	// One group of 4: site03 (highest rank) becomes super-peer.
	views, err := h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	sp := views["site00"].SuperPeer
	if sp.Name != "site03" {
		t.Fatalf("super-peer = %s", sp.Name)
	}
	// Kill the super-peer.
	h.servers[3].Close()
	// A low-ranked member detects the failure; site02 (next-highest) must
	// take over after majority verification. The first missed probe only
	// raises suspicion — recovery waits for the threshold.
	initiated, err := h.agents[0].DetectAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if initiated {
		t.Fatal("recovery initiated on a single missed probe")
	}
	initiated, err = h.agents[0].DetectAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if !initiated {
		t.Fatal("recovery not initiated")
	}
	// CandidateNotify triggers takeover asynchronously; wait for it.
	deadline := time.After(5 * time.Second)
	for {
		if h.agents[2].Role() == RoleSuperPeer {
			break
		}
		select {
		case <-deadline:
			t.Fatal("takeover never completed")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Members learn the new super-peer.
	for _, i := range []int{0, 1} {
		waitFor(t, func() bool {
			return h.agents[i].View().SuperPeer.Name == "site02"
		}, "member view update")
	}
	// The super-group membership swapped the dead peer for the new one.
	for _, s := range h.agents[2].View().SuperPeers {
		if s.Name == "site03" {
			t.Fatal("dead super-peer still in super-group")
		}
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timeout waiting for %s", what)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestDetectNoopWhenSuperPeerAlive(t *testing.T) {
	h := newHarness(t, 3)
	h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 3})
	initiated, err := h.agents[0].DetectAndRecover()
	if err != nil || initiated {
		t.Fatalf("spurious recovery: %v %v", initiated, err)
	}
}

func TestTakeoverRefusedWhenSuperPeerAlive(t *testing.T) {
	h := newHarness(t, 3)
	h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 3})
	sp := h.agents[0].View().SuperPeer
	// Ask the second-ranked member to take over while the SP is alive.
	if err := h.agents[1].RunTakeover(sp.Name); err == nil {
		t.Fatal("takeover with living super-peer must fail")
	}
}

func TestTakeoverRefusedForWrongCandidate(t *testing.T) {
	h := newHarness(t, 4)
	h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 4})
	h.servers[3].Close() // super-peer down
	// site00 is the lowest-ranked survivor; its takeover must be refused.
	if err := h.agents[0].RunTakeover("site03"); err == nil {
		t.Fatal("low-ranked candidate must not take over")
	}
}

func TestVerifyRequestRejectsWrongSuperPeer(t *testing.T) {
	h := newHarness(t, 3)
	h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 3})
	cli := transport.NewClient(nil)
	body := xmlutil.NewNode("Verify")
	body.SetAttr("down", "not-my-sp")
	body.SetAttr("candidate", "site01")
	body.SetAttr("rank", "1001")
	if _, err := cli.Call(h.infos[0].PeerURL(), "VerifyRequest", body); err == nil {
		t.Fatal("wrong super-peer name must be rejected")
	}
}

func TestMonitorDrivesRecovery(t *testing.T) {
	h := newHarness(t, 3)
	h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 3})
	h.servers[2].Close() // super-peer (site02, highest rank) dies
	waitFor(t, func() bool {
		for _, a := range h.agents[:2] {
			a.Maintain()
		}
		return h.agents[1].Role() == RoleSuperPeer
	}, "monitor-driven takeover")
}

func TestRoleString(t *testing.T) {
	if RoleMember.String() != "Member" || RoleSuperPeer.String() != "SuperPeer" ||
		RoleUnassigned.String() != "Unassigned" {
		t.Fatal("role names wrong")
	}
}

// Property: PartitionGroups places every site in exactly one group, gives
// each group exactly one super-peer (its highest-ranked member), and the
// super-group is exactly the top-ceil(n/size) ranked sites.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(n, size uint8) bool {
		count := int(n%20) + 1
		groupSize := int(size%6) + 1
		var sites []SiteInfo
		for i := 0; i < count; i++ {
			sites = append(sites, SiteInfo{
				Name: fmt.Sprintf("s%03d", i), Rank: uint64(i * 7),
			})
		}
		views := PartitionGroups(sites, groupSize)
		if len(views) != count {
			return false
		}
		k := (count + groupSize - 1) / groupSize
		supers := map[string]bool{}
		assigned := map[string]int{}
		for name, v := range views {
			if !v.Member(name) {
				return false
			}
			supers[v.SuperPeer.Name] = true
			if len(v.SuperPeers) != k {
				return false
			}
			for _, m := range v.Group {
				if m.Name == name {
					assigned[name]++
				}
			}
			// The super-peer is the highest-ranked member of its group.
			for _, m := range v.Group {
				if m.Rank > v.SuperPeer.Rank {
					return false
				}
			}
		}
		if len(supers) != k {
			return false
		}
		for _, c := range assigned {
			if c != 1 {
				return false
			}
		}
		// Supers are exactly the k highest-ranked sites.
		ranked := RankSites(sites)
		for i := 0; i < k; i++ {
			if !supers[ranked[i].Name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinateGrowingCommunity replays the daemon join sequence: the
// coordinator elects over {0,1}, then site 2 joins and it re-elects over
// all three. The smaller-community commitment from the first round must
// not outlive that election — before the reset in setView, site 1 would
// refuse every later (larger) election forever and strand itself on the
// old epoch with a disagreeing replica set.
func TestCoordinateGrowingCommunity(t *testing.T) {
	h := newHarness(t, 3)
	if _, err := h.agents[0].Coordinate(h.infos[:2], CoordinatorConfig{GroupSize: 3}); err != nil {
		t.Fatal(err)
	}
	views, err := h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("second election assigned %d views, want 3: %v", len(views), views)
	}
	for i, a := range h.agents {
		if got := a.View().Epoch; got != 2 {
			t.Fatalf("agent %d at epoch %d after the grow election, want 2", i, got)
		}
		if got := len(a.View().Group); got != 3 {
			t.Fatalf("agent %d sees a group of %d, want 3", i, got)
		}
	}
}
