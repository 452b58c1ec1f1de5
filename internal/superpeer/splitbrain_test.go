package superpeer

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"glare/internal/faultinject"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/wsrf"
)

// chaosHarness is like harness but gives every agent its own client and
// fault injector, so per-site reachability (the substrate of partitions
// and takeover races) can differ between observers.
type chaosHarness struct {
	agents  []*Agent
	servers []*transport.Server
	infos   []SiteInfo
	injs    []*faultinject.Injector
}

func newChaosHarness(t *testing.T, n int) *chaosHarness {
	t.Helper()
	h := &chaosHarness{}
	for i := 0; i < n; i++ {
		srv := transport.NewServer()
		if err := srv.Start("127.0.0.1:0", nil); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		info := SiteInfo{
			Name:    fmt.Sprintf("site%02d", i),
			Rank:    uint64(1000 + i),
			BaseURL: srv.BaseURL(),
		}
		cli := transport.NewClient(nil)
		inj := faultinject.New(int64(100 + i))
		cli.WrapTransport(inj.Wrap)
		a := NewAgent(info, cli, wsrf.NewBroker(nil))
		a.pingTimeout = 100 * time.Millisecond
		a.Mount(srv)
		h.agents = append(h.agents, a)
		h.servers = append(h.servers, srv)
		h.infos = append(h.infos, info)
		h.injs = append(h.injs, inj)
	}
	return h
}

func TestViewCompareOrdering(t *testing.T) {
	lo := SiteInfo{Name: "a", Rank: 1}
	hi := SiteInfo{Name: "b", Rank: 2}
	base := View{Epoch: 2, SuperPeer: hi}
	// A higher epoch always wins, regardless of rank.
	if !(View{Epoch: 1, SuperPeer: hi}).OlderThan(View{Epoch: 2, SuperPeer: lo}) {
		t.Fatal("epoch must dominate rank")
	}
	// Equal epochs fall back to super-peer rank.
	if !(View{Epoch: 2, SuperPeer: lo}).OlderThan(base) {
		t.Fatal("equal epoch must arbitrate by rank")
	}
	// Equal ranks fall back to name: the smaller name wins (as RankSites).
	a := View{Epoch: 2, SuperPeer: SiteInfo{Name: "aa", Rank: 5}}
	b := View{Epoch: 2, SuperPeer: SiteInfo{Name: "zz", Rank: 5}}
	if !b.OlderThan(a) || a.OlderThan(b) {
		t.Fatal("equal rank must arbitrate by name, smaller wins")
	}
	if base.Compare(base) != 0 {
		t.Fatal("view must compare equal to itself")
	}
}

func TestMergeViews(t *testing.T) {
	s := func(i int) SiteInfo { return SiteInfo{Name: fmt.Sprintf("s%d", i), Rank: uint64(i)} }
	winner := View{Epoch: 3, Group: []SiteInfo{s(5), s(1)}, SuperPeer: s(5), SuperPeers: []SiteInfo{s(5)}}
	loser := View{Epoch: 7, Group: []SiteInfo{s(4), s(2), s(1)}, SuperPeer: s(4), SuperPeers: []SiteInfo{s(4), s(5)}}
	m := MergeViews(winner, loser)
	if m.Epoch != 8 {
		t.Fatalf("merged epoch = %d, want max+1 = 8", m.Epoch)
	}
	if m.SuperPeer.Name != "s5" {
		t.Fatalf("merged super-peer = %s", m.SuperPeer.Name)
	}
	if len(m.Group) != 4 || !m.Member("s1") || !m.Member("s2") || !m.Member("s4") || !m.Member("s5") {
		t.Fatalf("merged group = %v", m.Group)
	}
	// The abdicating super-peer is out of the super-group; the winner stays.
	for _, sp := range m.SuperPeers {
		if sp.Name == "s4" {
			t.Fatal("loser still in super-group")
		}
	}
	if len(m.SuperPeers) != 1 || m.SuperPeers[0].Name != "s5" {
		t.Fatalf("merged supers = %v", m.SuperPeers)
	}
}

// TestEpochFenceRejectsStaleInstalls drives the fence through the wire
// protocol: Takeover and GroupAssign messages carrying an older (epoch,
// rank) view must be refused without disturbing the installed one.
func TestEpochFenceRejectsStaleInstalls(t *testing.T) {
	h := newHarness(t, 3)
	tel := telemetry.New("fence")
	h.agents[0].SetTelemetry(tel)
	if _, err := h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 3}); err != nil {
		t.Fatal(err)
	}
	// One group of 3 at epoch 1, super-peer site02.
	cur := h.agents[0].View()
	if cur.Epoch != 1 || cur.SuperPeer.Name != "site02" {
		t.Fatalf("view after election = epoch %d sp %s", cur.Epoch, cur.SuperPeer.Name)
	}
	cli := transport.NewClient(nil)

	stale := cur.Clone()
	stale.Epoch = 0
	stale.SuperPeer = h.infos[1]
	if _, err := cli.Call(h.infos[0].PeerURL(), "Takeover", stale.ToXML()); err == nil {
		t.Fatal("stale-epoch Takeover accepted")
	}
	if _, err := cli.Call(h.infos[0].PeerURL(), "GroupAssign", stale.ToXML()); err == nil {
		t.Fatal("stale-epoch GroupAssign accepted")
	}
	if got := h.agents[0].View(); got.Epoch != 1 || got.SuperPeer.Name != "site02" {
		t.Fatalf("stale install disturbed the view: %+v", got)
	}
	if n := tel.Counter("glare_superpeer_stale_view_rejected_total").Value(); n != 2 {
		t.Fatalf("stale rejections = %d, want 2", n)
	}

	// A higher epoch installs.
	newer := cur.Clone()
	newer.Epoch = 5
	newer.SuperPeer = h.infos[1]
	if _, err := cli.Call(h.infos[0].PeerURL(), "Takeover", newer.ToXML()); err != nil {
		t.Fatal(err)
	}
	if got := h.agents[0].View(); got.Epoch != 5 || got.SuperPeer.Name != "site01" {
		t.Fatalf("newer view not installed: %+v", got)
	}

	// Equal epoch: a lower-ranked super-peer loses, a higher-ranked wins.
	lower := newer.Clone()
	lower.SuperPeer = h.infos[0]
	if _, err := cli.Call(h.infos[0].PeerURL(), "Takeover", lower.ToXML()); err == nil {
		t.Fatal("equal-epoch lower-rank Takeover accepted")
	}
	higher := newer.Clone()
	higher.SuperPeer = h.infos[2]
	if _, err := cli.Call(h.infos[0].PeerURL(), "Takeover", higher.ToXML()); err != nil {
		t.Fatal(err)
	}
	if got := h.agents[0].View(); got.SuperPeer.Name != "site02" {
		t.Fatalf("equal-epoch higher-rank view not installed: %+v", got)
	}
	if n := tel.Gauge("glare_superpeer_epoch").Value(); n != 5 {
		t.Fatalf("epoch gauge = %d, want 5", n)
	}
}

// TestSuspicionResetOnTransientFailure verifies one missed probe does not
// depose a healthy super-peer: suspicion clears on the next successful
// probe and has to build up again from zero once the failure is real.
func TestSuspicionResetOnTransientFailure(t *testing.T) {
	h := newChaosHarness(t, 3)
	if _, err := h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 3}); err != nil {
		t.Fatal(err)
	}
	spDest := destOfURL(h.infos[2].BaseURL)

	// A transient fault: one missed probe only raises suspicion.
	h.injs[0].Drop(spDest)
	if initiated, err := h.agents[0].DetectAndRecover(); err != nil || initiated {
		t.Fatalf("transient miss tripped recovery: %v %v", initiated, err)
	}
	// The super-peer answers again: suspicion must reset.
	h.injs[0].Restore(spDest)
	if initiated, err := h.agents[0].DetectAndRecover(); err != nil || initiated {
		t.Fatalf("healthy probe tripped recovery: %v %v", initiated, err)
	}
	// Now the super-peer really dies. If the earlier miss had leaked into
	// the counter, the very next probe would trip; it must take a full
	// threshold's worth of misses again.
	h.servers[2].Close()
	if initiated, err := h.agents[0].DetectAndRecover(); err != nil || initiated {
		t.Fatalf("suspicion did not reset: %v %v", initiated, err)
	}
	initiated, err := h.agents[0].DetectAndRecover()
	if err != nil || !initiated {
		t.Fatalf("recovery not initiated at threshold: %v %v", initiated, err)
	}
	waitFor(t, func() bool { return h.agents[1].Role() == RoleSuperPeer }, "takeover by site01")
}

// TestConcurrentTakeoverRace races two takeover candidates for the same
// dead super-peer: site03 can reach everyone, while site00-02 cannot reach
// site03 (so they verify and acknowledge site02 as well). Whatever the
// interleaving, the equal-epoch fence arbitration by super-peer rank must
// leave exactly one reign standing, with both surviving members following
// the same winner at epoch 2.
func TestConcurrentTakeoverRace(t *testing.T) {
	h := newChaosHarness(t, 5)
	if _, err := h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 5}); err != nil {
		t.Fatal(err)
	}
	if h.agents[0].View().SuperPeer.Name != "site04" {
		t.Fatalf("super-peer = %s", h.agents[0].View().SuperPeer.Name)
	}
	h.servers[4].Close()
	// Sites 00-02 lose sight of site03, so from their vantage point site02
	// is the best surviving candidate, while site03 still sees everyone.
	dest3 := destOfURL(h.infos[3].BaseURL)
	for _, i := range []int{0, 1, 2} {
		h.injs[i].Drop(dest3)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = h.agents[3].RunTakeover("site04") }()
	go func() { defer wg.Done(); _ = h.agents[2].RunTakeover("site04") }()
	wg.Wait()

	waitFor(t, func() bool {
		supers := 0
		for _, a := range h.agents[:4] {
			if a.Role() == RoleSuperPeer {
				supers++
			}
		}
		if supers != 1 {
			return false
		}
		v0, v1 := h.agents[0].View(), h.agents[1].View()
		return v0.Epoch == 2 && v1.Epoch == 2 &&
			v0.SuperPeer.Name == v1.SuperPeer.Name &&
			h.agents[int(v0.SuperPeer.Rank-1000)].Role() == RoleSuperPeer
	}, "single takeover winner")
}

// splitReigns manufactures the aftermath of a healed partition: site03
// still reigns over everyone at epoch 1, while a takeover on the other
// side put site02 in charge at epoch 2.
func splitReigns(t *testing.T, h *harness) (older, newer View) {
	t.Helper()
	older = View{Epoch: 1, Group: h.infos, SuperPeer: h.infos[3], SuperPeers: []SiteInfo{h.infos[3]}}
	newer = View{Epoch: 2, Group: h.infos, SuperPeer: h.infos[2], SuperPeers: []SiteInfo{h.infos[2]}}
	for _, i := range []int{3, 0} {
		if !h.agents[i].setView(older.Clone()) {
			t.Fatal("seeding old reign failed")
		}
	}
	for _, i := range []int{2, 1} {
		if !h.agents[i].setView(newer.Clone()) {
			t.Fatal("seeding new reign failed")
		}
	}
	return older, newer
}

func assertHealed(t *testing.T, h *harness) {
	t.Helper()
	waitFor(t, func() bool {
		for _, a := range h.agents {
			v := a.View()
			if v.SuperPeer.Name != "site02" || v.Epoch != 3 {
				return false
			}
		}
		return h.agents[3].Role() == RoleMember && h.agents[2].Role() == RoleSuperPeer
	}, "split-brain heal convergence")
}

// TestCheckRivalsAbdicatesToNewerReign: the out-fenced super-peer discovers
// the rival itself and hands its group over via Rejoin.
func TestCheckRivalsAbdicatesToNewerReign(t *testing.T) {
	h := newHarness(t, 4)
	tel := telemetry.New("heal")
	h.agents[3].SetTelemetry(tel)
	splitReigns(t, h)

	healed, err := h.agents[3].CheckRivals()
	if err != nil {
		t.Fatal(err)
	}
	if !healed {
		t.Fatal("rival reign not detected")
	}
	assertHealed(t, h)
	if n := tel.Counter("glare_superpeer_rivals_detected_total").Value(); n == 0 {
		t.Fatal("rival detection not counted")
	}
	if n := tel.Counter("glare_superpeer_abdications_total").Value(); n != 1 {
		t.Fatalf("abdications = %d, want 1", n)
	}
}

// TestCheckRivalsAbsorbsOlderRival: the winning super-peer discovers the
// stale reign and absorbs it directly, fencing the rival out with the
// merged broadcast.
func TestCheckRivalsAbsorbsOlderRival(t *testing.T) {
	h := newHarness(t, 4)
	splitReigns(t, h)

	healed, err := h.agents[2].CheckRivals()
	if err != nil {
		t.Fatal(err)
	}
	if !healed {
		t.Fatal("rival reign not detected")
	}
	assertHealed(t, h)
}

// TestCheckRivalsIgnoresDisjointGroups: two super-peers over disjoint
// groups are the normal multi-group overlay, not a split brain.
func TestCheckRivalsIgnoresDisjointGroups(t *testing.T) {
	h := newHarness(t, 4)
	a := View{Epoch: 1, Group: h.infos[:2], SuperPeer: h.infos[1], SuperPeers: []SiteInfo{h.infos[1], h.infos[3]}}
	b := View{Epoch: 2, Group: h.infos[2:], SuperPeer: h.infos[3], SuperPeers: []SiteInfo{h.infos[1], h.infos[3]}}
	h.agents[1].setView(a.Clone())
	h.agents[0].setView(a.Clone())
	h.agents[3].setView(b.Clone())
	h.agents[2].setView(b.Clone())

	healed, err := h.agents[1].CheckRivals()
	if err != nil {
		t.Fatal(err)
	}
	if healed {
		t.Fatal("disjoint groups treated as rivals")
	}
	if h.agents[1].Role() != RoleSuperPeer || h.agents[3].Role() != RoleSuperPeer {
		t.Fatal("legitimate multi-group reigns disturbed")
	}
}
