package glare

import (
	"sort"
	"testing"
	"time"
)

// sidesOf splits a 6-site grid into the super-peer's half and the other
// half: the super-peer plus the two lowest-ranked remaining sites on side
// A, the three highest-ranked remaining sites on side B. Side B therefore
// holds a clear takeover candidate, and both halves keep a majority-capable
// quorum story: B's three sites are exactly the majority of the five
// survivors.
func sidesOf(g *Grid, sp int) (sideA, sideB []int) {
	rest := []int{}
	for i := 0; i < g.Sites(); i++ {
		if i != sp {
			rest = append(rest, i)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		return g.vo.Nodes[rest[i]].Info.Rank > g.vo.Nodes[rest[j]].Info.Rank
	})
	sideB = rest[:3]                       // highest-ranked survivors
	sideA = append([]int{sp}, rest[3:]...) // old super-peer + the rest
	return sideA, sideB
}

// TestPartitionHealConvergesToSingleReign is the partition-tolerance
// acceptance path: a 6-site grid is split into halves; the half without
// the super-peer elects its own (suspicion threshold, majority of the
// reachable survivors); each half keeps registering; after the heal the
// rival probes merge the reigns onto the highest (epoch, rank) winner,
// every site converges on one super-peer, and registrations made on both
// sides resolve from every site.
func TestPartitionHealConvergesToSingleReign(t *testing.T) {
	g := newGrid(t, GridOptions{
		Sites:           6,
		GroupSize:       6, // one group: a clean two-reign split
		ChaosSeed:       42,
		CallTimeout:     300 * time.Millisecond,
		BreakerCooldown: 200 * time.Millisecond,
	})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	sp := -1
	for i := 0; i < g.Sites(); i++ {
		if g.IsSuperPeer(i) {
			sp = i
		}
		if g.EpochOf(i) != 1 {
			t.Fatalf("site %d at epoch %d after the first election", i, g.EpochOf(i))
		}
	}
	if sp < 0 {
		t.Fatal("no super-peer elected")
	}
	sideA, sideB := sidesOf(g, sp)
	winner, detector := sideB[0], sideB[2]

	if err := g.PartitionSites(sideA, sideB); err != nil {
		t.Fatal(err)
	}

	// Side B loses its super-peer behind the partition. One missed probe
	// only raises suspicion; the threshold's worth initiates recovery, and
	// the highest-ranked reachable survivor takes over with the majority of
	// the five survivors (its own three-site half).
	agent := g.vo.Nodes[detector].Agent
	if initiated, err := agent.DetectAndRecover(); err != nil || initiated {
		t.Fatalf("single miss tripped recovery: %v %v", initiated, err)
	}
	if initiated, err := agent.DetectAndRecover(); err != nil || !initiated {
		t.Fatalf("recovery not initiated at suspicion threshold: %v %v", initiated, err)
	}
	waitUntil(t, 10*time.Second, func() bool {
		return g.IsSuperPeer(winner) && g.EpochOf(winner) == 2
	}, "side-B takeover")
	if !g.IsSuperPeer(sp) || g.EpochOf(sp) != 1 {
		t.Fatal("old reign should persist on its own side of the split")
	}
	// The takeover broadcast could not cross the partition; the failures
	// are counted, not swallowed. (The broadcast runs after the winner's
	// own view install, so give it a moment.)
	propagateFails := g.Telemetry(winner).Counter("glare_superpeer_view_propagate_failures_total")
	waitUntil(t, 5*time.Second, func() bool { return propagateFails.Value() > 0 },
		"cross-partition view propagation failures to be counted")

	// Both halves keep working: each registers its own application.
	registerDeployment(t, g, sideA[1], "left-dep", "LeftApp")
	registerDeployment(t, g, sideB[1], "right-dep", "RightApp")

	if err := g.HealPartition(); err != nil {
		t.Fatal(err)
	}

	// After the heal the rival probes (normally driven by StartMonitors)
	// detect the double reign and merge it; repeated probes also rebroadcast
	// the winning view past any still-cooling circuit breakers.
	waitUntil(t, 15*time.Second, func() bool {
		for i := 0; i < g.Sites(); i++ {
			g.vo.Nodes[i].Agent.CheckRivals()
		}
		supers := 0
		for i := 0; i < g.Sites(); i++ {
			if g.IsSuperPeer(i) {
				supers++
			}
		}
		if supers != 1 {
			return false
		}
		want := g.SuperPeerOf(winner)
		epoch := g.EpochOf(winner)
		if epoch < 3 {
			return false
		}
		for i := 0; i < g.Sites(); i++ {
			if g.SuperPeerOf(i) != want || g.EpochOf(i) != epoch {
				return false
			}
		}
		return true
	}, "post-heal convergence to a single reign")

	if !g.IsSuperPeer(winner) || g.IsSuperPeer(sp) {
		t.Fatalf("merged reign must keep the higher-epoch winner: winner=%v oldSP=%v",
			g.IsSuperPeer(winner), g.IsSuperPeer(sp))
	}
	abdications := uint64(0)
	for i := 0; i < g.Sites(); i++ {
		abdications += g.Telemetry(i).Counter("glare_superpeer_abdications_total").Value()
	}
	if abdications == 0 {
		t.Fatal("healing a split brain must record at least one abdication")
	}

	// Both sides' registrations resolve from every site once the breakers
	// finish cooling down.
	for i := 0; i < g.Sites(); i++ {
		c := g.Client(i)
		for _, typeName := range []string{"LeftApp", "RightApp"} {
			name := map[string]string{"LeftApp": "left-dep", "RightApp": "right-dep"}[typeName]
			waitUntil(t, 10*time.Second, func() bool {
				deps, err := c.DiscoverNoDeploy(typeName)
				return err == nil && depNames(deps)[name]
			}, "resolving "+typeName+" from site "+g.SiteName(i))
		}
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
