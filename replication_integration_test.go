package glare

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"glare/internal/faultinject"
)

// replicaGroup locates a peer group that does not contain site 0 (the
// community-index holder, which cannot be killed) and splits it into the
// super-peer's index and the other members.
func replicaGroup(t *testing.T, g *Grid) (sp int, members []int) {
	t.Helper()
	groups := map[string][]int{}
	for i := 0; i < g.Sites(); i++ {
		groups[g.SuperPeerOf(i)] = append(groups[g.SuperPeerOf(i)], i)
	}
	for _, idx := range groups {
		holder := false
		for _, i := range idx {
			if i == 0 {
				holder = true
			}
		}
		if holder {
			continue
		}
		sp = -1
		for _, i := range idx {
			if g.IsSuperPeer(i) {
				sp = i
			} else {
				members = append(members, i)
			}
		}
		if sp >= 0 && len(members) == 2 {
			return sp, members
		}
	}
	t.Fatalf("no killable group of 3 found; groups=%v", groups)
	return 0, nil
}

// TestReplicationSurvivesPermanentSiteLoss is the replication acceptance
// path: a 6-site grid (two groups of 3, replication factor 3) runs a
// registration crash storm that permanently kills 2 of one group's 3
// replica holders — including registration owners — mid-workload. The
// surviving super-peer detects the losses and promotes itself as the
// most-caught-up replica; afterwards every client-acknowledged
// registration must still resolve: the zero-acknowledged-write-loss
// invariant with K-1 simultaneous permanent deaths. A replacement site
// then joins under a dead site's name and receives its data back.
func TestReplicationSurvivesPermanentSiteLoss(t *testing.T) {
	dataDir := t.TempDir()
	g := newGrid(t, GridOptions{
		Sites:     6,
		GroupSize: 3,
		Replicas:  3,
		DataDir:   dataDir,
		// Caches off so post-failover resolution provably hits promoted
		// registry state, not a stale cache entry.
		DisableCache: true,
		// The survivor's breaker opens against the dead addresses during
		// failure detection; a short cooldown lets its half-open probe
		// rediscover the replacement site quickly.
		BreakerCooldown: 50 * time.Millisecond,
	})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	sp, owners := replicaGroup(t, g)

	killed := map[int]bool{}
	group := append([]int{sp}, owners...)
	// drain lets asynchronous replica fan-out and read repair settle
	// before a kill: the documented guarantee is quorum at ack time plus
	// repair closing the remaining gap within the suspicion window.
	drain := func() {
		for _, i := range group {
			if !killed[i] {
				g.vo.Nodes[i].RDM.RepairReplicas()
			}
		}
	}
	ownerOf := map[string]int{}
	storm := &faultinject.CrashStorm{
		Register: func(i int) (string, error) {
			name := fmt.Sprintf("StormType%02d", i)
			for try := 0; try < len(owners); try++ {
				o := owners[(i+try)%len(owners)]
				if killed[o] {
					continue
				}
				if err := g.Client(o).RegisterType(&Type{Name: name, Domain: "CrashStorm"}); err != nil {
					return "", err
				}
				ownerOf[name] = o
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
		Seed:          2005,
	}
	if err := storm.Run(); err != nil {
		t.Fatal(err)
	}
	if got := storm.Killed(); len(got) != 2 {
		t.Fatalf("storm killed %v, want both owners %v", got, owners)
	}
	if len(storm.Acked()) == 0 {
		t.Fatal("storm acknowledged no registrations; nothing to verify")
	}

	// The dead sites' journals are gone — there is genuinely nothing to
	// restart, and RestartSite says so.
	for _, o := range owners {
		if _, err := os.Stat(filepath.Join(dataDir, fmt.Sprintf("site-%02d", o+1))); !os.IsNotExist(err) {
			t.Fatalf("killed site %d still has a data dir (err=%v)", o, err)
		}
		if err := g.RestartSite(o); err == nil || !strings.Contains(err.Error(), "ReplaceSite") {
			t.Fatalf("RestartSite(%d) after KillSite = %v, want ReplaceSite hint", o, err)
		}
	}

	// Failover: the surviving super-peer's liveness pass must see each
	// dead site miss two probes (the suspicion threshold) before it
	// promotes the most-caught-up replica — itself, the only holder left.
	// So the first pass after the kills promotes nothing, and the second
	// promotes.
	survivor := g.Client(sp)
	if n := g.vo.Nodes[sp].RDM.CheckLiveness(); n != 0 {
		t.Fatalf("first liveness pass after the kills promoted %d, want 0", n)
	}
	if n := g.vo.Nodes[sp].RDM.CheckLiveness(); n == 0 {
		t.Fatal("second liveness pass promoted nothing")
	}
	if n := g.Telemetry(sp).Counter("glare_replica_promotions_total").Value(); n == 0 {
		t.Fatal("glare_replica_promotions_total = 0 after failover")
	}

	// The invariant: every registration a client was told succeeded is
	// still resolvable from the healed grid.
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
		t.Fatalf("acknowledged registrations lost after failover: %v", lost)
	}
	// Cross-group spot check: a site in the other group resolves an
	// affected type through the super-peer overlay.
	var other int
	for i := 1; i < g.Sites(); i++ {
		if i != sp && !killed[i] {
			other = i
			break
		}
	}
	probe := storm.Acked()[0]
	if types, err := g.Client(other).ResolveTypes(probe); err != nil || len(types) == 0 {
		t.Fatalf("cross-group resolution of %q from site %d: types=%v err=%v", probe, other, types, err)
	}

	// With the whole replica set but the super-peer dead, a fresh write
	// cannot reach a quorum — the site refuses the ack rather than
	// promising durability it cannot provide.
	if err := survivor.RegisterType(&Type{Name: "PostStormType", Domain: "CrashStorm"}); err == nil ||
		!strings.Contains(err.Error(), "quorum") {
		t.Fatalf("registration without a reachable quorum = %v, want quorum error", err)
	}
	if n := g.Telemetry(sp).Counter("glare_replica_quorum_failures_total").Value(); n == 0 {
		t.Fatal("glare_replica_quorum_failures_total = 0 after failed registration")
	}

	// Replacement: a fresh, empty site joins under the first dead site's
	// name; the next repair pass hands its adopted data back.
	dead := storm.Killed()[0]
	if err := g.ReplaceSite(dead); err != nil {
		t.Fatal(err)
	}
	if got := g.Client(dead).Types(); len(got) != 0 {
		t.Fatalf("replacement site started with state: %v", got)
	}
	// Repair passes hand the data back once the survivor's breaker
	// half-opens against the replacement's address.
	replTypes := map[string]bool{}
	for attempt := 0; attempt < 20 && len(replTypes) == 0; attempt++ {
		g.vo.Nodes[sp].RDM.RepairReplicas()
		for _, name := range g.Client(dead).Types() {
			replTypes[name] = true
		}
		if len(replTypes) == 0 {
			time.Sleep(100 * time.Millisecond)
		}
	}
	for _, name := range storm.Acked() {
		if ownerOf[name] == dead && !replTypes[name] {
			t.Fatalf("replacement site missing handed-off registration %q (has %v)", name, g.Client(dead).Types())
		}
	}
	if n := g.Telemetry(sp).Counter("glare_replica_handoffs_total").Value(); n == 0 {
		t.Fatal("glare_replica_handoffs_total = 0 after hand-off")
	}
}

// TestSiteLifecycleGuards pins the lifecycle error surface: RestartSite
// refuses sites that were never stopped, sites already restarted, and
// sites removed permanently; KillSite refuses the community-index holder
// and double kills; ReplaceSite refuses sites that still exist.
func TestSiteLifecycleGuards(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 3, DataDir: t.TempDir()})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}

	// Restarting a live site must not race the live listener.
	if err := g.RestartSite(1); err == nil || !strings.Contains(err.Error(), "not stopped") {
		t.Fatalf("RestartSite on a running site = %v, want not-stopped error", err)
	}
	g.StopSite(1)
	if err := g.RestartSite(1); err != nil {
		t.Fatal(err)
	}
	// The restart consumed the stop: a second restart has nothing to do.
	if err := g.RestartSite(1); err == nil || !strings.Contains(err.Error(), "not stopped") {
		t.Fatalf("double RestartSite = %v, want not-stopped error", err)
	}

	if err := g.KillSite(0); err == nil {
		t.Fatal("killed the community-index holder")
	}
	if err := g.ReplaceSite(2); err == nil {
		t.Fatal("replaced a site that was never killed")
	}
	if err := g.KillSite(2); err != nil {
		t.Fatal(err)
	}
	if err := g.KillSite(2); err == nil {
		t.Fatal("killed the same site twice")
	}
	if err := g.RestartSite(2); err == nil || !strings.Contains(err.Error(), "ReplaceSite") {
		t.Fatalf("RestartSite on a killed site = %v, want ReplaceSite hint", err)
	}
	if err := g.ReplaceSite(2); err != nil {
		t.Fatal(err)
	}
	// The replacement is a live site again: normal lifecycle applies.
	if err := g.RestartSite(2); err == nil || !strings.Contains(err.Error(), "not stopped") {
		t.Fatalf("RestartSite on a replaced live site = %v, want not-stopped error", err)
	}
}
