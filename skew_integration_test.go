package glare

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"glare/internal/faultinject"
)

// skewSeed returns the seed for a test's skew schedule: GLARE_SKEW_SEED
// when set (CI sweeps several), otherwise def.
func skewSeed(t *testing.T, def int64) int64 {
	s := os.Getenv("GLARE_SKEW_SEED")
	if s == "" {
		return def
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad GLARE_SKEW_SEED %q: %v", s, err)
	}
	return n
}

// These are the clock-skew acceptance paths: the PR-8 registration crash
// storm and the PR-3 partition/heal convergence path re-run with every
// site's wall clock displaced by a seeded ±10-minute schedule (plus
// drift), and with an extra backward clock STEP injected mid-workload.
// The invariants must hold exactly as they do with true clocks: zero
// acknowledged-write loss, no resurrection of acknowledged deletes, and
// post-heal convergence to a single reign with both sides' registrations
// resolvable everywhere. See internal/replicate's skew regression tests
// for the demonstration that these invariants genuinely fail when the
// HLC stamp source is reverted to raw wall clocks.

// TestSkewedCrashStormZeroAckedWriteLoss: the replication crash storm
// under maximal clock disagreement. Two of a group's three replica
// holders die permanently mid-storm while their clocks disagree by up to
// 20 minutes — and one owner's clock is stepped 10 minutes BACKWARD
// between its registrations, so its later writes carry older wall times.
// Every registration a client was acked must still resolve after
// failover, and an acknowledged undeploy must stay deleted.
func TestSkewedCrashStormZeroAckedWriteLoss(t *testing.T) {
	g := newGrid(t, GridOptions{
		Sites:           6,
		GroupSize:       3,
		Replicas:        3,
		DataDir:         t.TempDir(),
		DisableCache:    true,
		BreakerCooldown: 50 * time.Millisecond,
	})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	// Seeded schedule: every site draws an offset from ±10 minutes plus a
	// proportional drift. Skew is injected AFTER election so the storm
	// runs entirely on disagreeing clocks.
	offsets := g.SkewGrid(skewSeed(t, 2006), 10*time.Minute)
	if len(offsets) != 6 {
		t.Fatalf("skew schedule covered %d sites, want 6", len(offsets))
	}
	spread := false
	for _, off := range offsets {
		if off > time.Minute || off < -time.Minute {
			spread = true
		}
	}
	if !spread {
		t.Fatalf("seeded schedule produced no meaningful skew: %v", offsets)
	}

	sp, owners := replicaGroup(t, g)
	killed := map[int]bool{}
	group := append([]int{sp}, owners...)
	drain := func() {
		for _, i := range group {
			if !killed[i] {
				g.vo.Nodes[i].RDM.RepairReplicas()
			}
		}
	}

	// Tombstone-under-backward-step prologue: an owner registers a
	// deployment, its clock steps 10 minutes backward (so the delete will
	// carry an older WALL time than the put it follows), and the client
	// undeploys it — acked. After the owner's death and failover, the
	// deployment must stay deleted: a promoted replica resurrecting it
	// would be serving a write the client was told was gone.
	doomedOwner := owners[0]
	doomed := g.Client(doomedOwner)
	doomed.ProvisionExecutable("/opt/doomed/bin/doomed-dep")
	if err := doomed.RegisterDeployment(&Deployment{
		Name: "doomed-dep", Type: "DoomedApp", Kind: KindExecutable,
		Site: doomed.SiteName(), Path: "/opt/doomed/bin/doomed-dep",
	}); err != nil {
		t.Fatal(err)
	}
	drain()
	g.SkewSite(doomedOwner, g.ClockOffset(doomedOwner)-10*time.Minute)
	if err := doomed.Undeploy("doomed-dep"); err != nil {
		t.Fatal(err)
	}
	drain()

	storm := &faultinject.CrashStorm{
		Register: func(i int) (string, error) {
			if i == 8 {
				// Mid-storm NTP step: every still-alive owner's clock
				// jumps 10 minutes backward. Later registrations and
				// deletes on these sites carry older WALL times than
				// earlier ones; their HLC stamps must keep ordering
				// forward anyway.
				for _, o := range owners {
					if !killed[o] {
						g.SkewSite(o, g.ClockOffset(o)-10*time.Minute)
					}
				}
			}
			name := fmt.Sprintf("SkewStormType%02d", i)
			for try := 0; try < len(owners); try++ {
				o := owners[(i+try)%len(owners)]
				if killed[o] {
					continue
				}
				if err := g.Client(o).RegisterType(&Type{Name: name, Domain: "SkewStorm"}); err != nil {
					return "", err
				}
				return name, nil
			}
			return "", fmt.Errorf("all owners dead")
		},
		Kill: func(site int) error {
			drain()
			killed[site] = true
			return g.KillSite(site)
		},
		Victims:       owners,
		Registrations: 24,
		Seed:          2006,
	}
	if err := storm.Run(); err != nil {
		t.Fatal(err)
	}
	if len(storm.Acked()) == 0 {
		t.Fatal("storm acknowledged no registrations; nothing to verify")
	}

	// Failover: two silent liveness passes per dead site, then promotion.
	// The first pass after the kills promotes nothing; the second does.
	survivor := g.Client(sp)
	if n := g.vo.Nodes[sp].RDM.CheckLiveness(); n != 0 {
		t.Fatalf("first liveness pass after the kills promoted %d, want 0", n)
	}
	if n := g.vo.Nodes[sp].RDM.CheckLiveness(); n == 0 {
		t.Fatal("second liveness pass promoted nothing")
	}

	// The invariant under skew: zero acknowledged-write loss.
	if lost := storm.Verify(func(name string) error {
		types, err := survivor.ResolveTypes(name)
		if err != nil {
			return err
		}
		if len(types) == 0 {
			return fmt.Errorf("no concrete types for %q", name)
		}
		return nil
	}); len(lost) != 0 {
		t.Fatalf("acknowledged registrations lost after failover under skew: %v", lost)
	}

	// No tombstone resurrection: the undeploy acked across the backward
	// clock step stays deleted after its owner's death and promotion.
	if deps, err := survivor.DiscoverNoDeploy("DoomedApp"); err == nil && depNames(deps)["doomed-dep"] {
		t.Fatal("acknowledged undeploy resurrected after failover under a backward clock step")
	}

	// The grid noticed the skew: sites exchanged stamps disagreeing far
	// beyond the alarm bound, so detections counted somewhere, and the
	// overlay's ViewStatus reports the worst observation per site.
	detections := uint64(0)
	for i := 0; i < g.Sites(); i++ {
		if killed[i] {
			continue
		}
		detections += g.Telemetry(i).Counter("glare_clock_skew_detected_total").Value()
	}
	if detections == 0 {
		t.Fatal("glare_clock_skew_detected_total = 0 grid-wide under a ±10-minute schedule")
	}
	status, err := g.vo.Client.Call(g.vo.Nodes[sp].Info.PeerURL(), "ViewStatus", nil)
	if err != nil {
		t.Fatal(err)
	}
	if status.AttrOr("skewMs", "") == "" {
		t.Fatal("ViewStatus carries no skewMs column")
	}
}

// TestSkewedPartitionHealSingleReign: the partition/heal acceptance path
// under the seeded skew schedule. The split halves elect rival reigns,
// register on both sides (on disagreeing clocks), and after the heal the
// grid must converge to one reign with both sides' registrations
// resolvable from every site — the same post-heal state a true-clock
// grid reaches.
func TestSkewedPartitionHealSingleReign(t *testing.T) {
	g := newGrid(t, GridOptions{
		Sites:           6,
		GroupSize:       6,
		ChaosSeed:       43,
		CallTimeout:     300 * time.Millisecond,
		BreakerCooldown: 200 * time.Millisecond,
	})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	g.SkewGrid(skewSeed(t, 2007), 10*time.Minute)

	sp := -1
	for i := 0; i < g.Sites(); i++ {
		if g.IsSuperPeer(i) {
			sp = i
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
	agent := g.vo.Nodes[detector].Agent
	agent.DetectAndRecover()
	if initiated, err := agent.DetectAndRecover(); err != nil || !initiated {
		t.Fatalf("recovery not initiated at suspicion threshold: %v %v", initiated, err)
	}
	waitUntil(t, 10*time.Second, func() bool {
		return g.IsSuperPeer(winner) && g.EpochOf(winner) == 2
	}, "side-B takeover under skew")

	// Both halves register on maximally disagreeing clocks; side A's
	// registrar additionally steps backward mid-partition, so its
	// registration carries an older wall time than work it causally
	// follows.
	g.SkewSite(sideA[1], g.ClockOffset(sideA[1])-10*time.Minute)
	registerDeployment(t, g, sideA[1], "skew-left-dep", "SkewLeftApp")
	registerDeployment(t, g, sideB[1], "skew-right-dep", "SkewRightApp")

	if err := g.HealPartition(); err != nil {
		t.Fatal(err)
	}
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
		for i := 0; i < g.Sites(); i++ {
			if g.SuperPeerOf(i) != want {
				return false
			}
		}
		return true
	}, "post-heal convergence to a single reign under skew")

	// Identical post-heal contents: both sides' registrations resolve
	// from every site, skew notwithstanding.
	for i := 0; i < g.Sites(); i++ {
		c := g.Client(i)
		for typeName, name := range map[string]string{
			"SkewLeftApp":  "skew-left-dep",
			"SkewRightApp": "skew-right-dep",
		} {
			typeName, name := typeName, name
			waitUntil(t, 10*time.Second, func() bool {
				deps, err := c.DiscoverNoDeploy(typeName)
				return err == nil && depNames(deps)[name]
			}, "resolving "+typeName+" from site "+g.SiteName(i))
		}
	}
}
