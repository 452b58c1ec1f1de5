package glare

import (
	"sort"
	"testing"
	"time"

	"glare/internal/rdm"
	"glare/internal/replicate"
	"glare/internal/store"
	"glare/internal/xmlutil"
)

// deleteRig is the failover scenario in which one replica holder of an
// origin misses the delete of one of the origin's two types while the
// other holder sees it. Promotion must pick the holder that saw the
// delete, and the type must stay deleted everywhere.
type deleteRig struct {
	g           *Grid
	origin      int // registers Gone and Kept, deletes Gone, then dies
	saw, missed int // the origin's two replica holders
}

// replicaSetOf lists site i's replica holders by site index, sorted.
func replicaSetOf(g *Grid, i int) []int {
	var set []int
	for _, rep := range g.vo.Nodes[i].RDM.ReplicaStatusXML().All("Replica") {
		for j, n := range g.vo.Nodes {
			if n.Info.Name == rep.AttrOr("name", "") {
				set = append(set, j)
			}
		}
	}
	sort.Ints(set)
	return set
}

// newDeleteRig builds a grid of one group, lets pick choose the origin and
// its two holders, registers Gone and Kept on the origin, repairs every
// site, and deletes Gone while the missed holder drops every request. It
// returns once the origin's fan-out of the delete drained, the missed
// holder answers again and has run one repair pass.
func newDeleteRig(t *testing.T, sites int, pick func(g *Grid) (origin, saw, missed int)) *deleteRig {
	t.Helper()
	g := newGrid(t, GridOptions{Sites: sites, GroupSize: sites, Replicas: 3, ChaosSeed: 7,
		DataDir: t.TempDir(), DisableCache: true})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	if !g.IsSuperPeer(0) {
		t.Fatal("site 0 is not the super-peer")
	}
	r := &deleteRig{g: g}
	r.origin, r.saw, r.missed = pick(g)
	for _, name := range []string{"Gone", "Kept"} {
		if err := g.Client(r.origin).RegisterType(&Type{Name: name, Domain: "Deletes"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sites; i++ {
		g.vo.Nodes[i].RDM.RepairReplicas()
	}
	if err := g.DropSite(r.missed); err != nil {
		t.Fatal(err)
	}
	if !g.vo.Nodes[r.origin].RDM.ATR.Remove("Gone") {
		t.Fatalf("site %d did not hold Gone", r.origin)
	}
	lag := g.vo.Nodes[r.origin].Tel.Gauge("glare_replica_lag_entries")
	for deadline := time.Now().Add(10 * time.Second); lag.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("site %d's replica fan-out never drained (lag %d)", r.origin, lag.Value())
		}
	}
	if err := g.RestoreSite(r.missed); err != nil {
		t.Fatal(err)
	}
	g.vo.Nodes[r.missed].RDM.RepairReplicas()
	return r
}

// failover kills the origin and runs the super-peer's two liveness passes
// that detect the loss and promote a holder.
func (r *deleteRig) failover(t *testing.T) {
	t.Helper()
	if err := r.g.KillSite(r.origin); err != nil {
		t.Fatal(err)
	}
	r.g.vo.Nodes[0].RDM.CheckLiveness()
	r.g.vo.Nodes[0].RDM.CheckLiveness()
}

// assertDeleted fails if any live site's ATR holds Gone, and checks that
// the promoted holder now owns Kept.
func (r *deleteRig) assertDeleted(t *testing.T, promoted int) {
	t.Helper()
	for i, n := range r.g.vo.Nodes {
		if i == r.origin {
			continue
		}
		if _, ok := n.RDM.ATR.Lookup("Gone"); ok {
			t.Errorf("site %d's ATR holds the deleted type Gone (types %v)", i, n.RDM.ATR.Names())
		}
	}
	if _, ok := r.g.vo.Nodes[promoted].RDM.ATR.Lookup("Kept"); !ok {
		t.Errorf("site %d was not promoted: its ATR lacks Kept", promoted)
	}
}

// shadow fetches site i's held copy of the origin's ATR through the
// ReplicaFetch wire op: the live keys and the tombstoned ones.
func (r *deleteRig) shadow(t *testing.T, i int) (live, deleted []string) {
	t.Helper()
	resp, err := r.g.vo.Nodes[0].Client.Call(r.g.vo.Nodes[i].Info.ServiceURL(rdm.ServiceName), "ReplicaFetch",
		xmlutil.NewNode("Origin", r.g.vo.Nodes[r.origin].Info.Name))
	if err != nil {
		t.Fatal(err)
	}
	_, regs, err := replicate.EntriesFromXML(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range regs[store.RegATR] {
		if e.Deleted {
			deleted = append(deleted, e.Key)
		} else {
			live = append(live, e.Key)
		}
	}
	return live, deleted
}

// TestDeletedTypeStaysDeleted: site 2 misses the delete of Gone, site 0
// sees it. When site 1 dies, site 0 must be promoted (its newest stamp is
// the tombstone's, though it holds fewer entries), and read repair from
// site 0 then carries the tombstone to site 2.
func TestDeletedTypeStaysDeleted(t *testing.T) {
	r := newDeleteRig(t, 3, func(g *Grid) (int, int, int) {
		if set := replicaSetOf(g, 1); len(set) != 2 || set[0] != 0 || set[1] != 2 {
			t.Fatalf("site 1's replica set = %v, want [0 2]", set)
		}
		return 1, 0, 2
	})
	r.failover(t)
	r.assertDeleted(t, 0)

	r.g.vo.Nodes[2].RDM.RepairReplicas()
	live, deleted := r.shadow(t, 2)
	if len(live) != 1 || live[0] != "Kept" || len(deleted) != 1 || deleted[0] != "Gone" {
		t.Fatalf("site 2's shadow of site 1 after repair: live %v, tombstones %v; want [Kept] and [Gone]", live, deleted)
	}
}

// TestDeletedTypeStaysDeletedAcrossRestart: the holder that saw the
// delete is stopped and restarted before the origin dies. Its tombstone
// comes back from its WAL, so it still holds the newest stamp and is
// promoted over the holder that missed the delete.
func TestDeletedTypeStaysDeletedAcrossRestart(t *testing.T) {
	r := newDeleteRig(t, 4, func(g *Grid) (int, int, int) {
		for origin := 1; origin < g.Sites(); origin++ {
			if set := replicaSetOf(g, origin); len(set) == 2 && set[0] != 0 {
				return origin, set[0], set[1]
			}
		}
		t.Fatal("no origin whose two replica holders are both restartable")
		return 0, 0, 0
	})
	r.g.StopSite(r.saw)
	if err := r.g.RestartSite(r.saw); err != nil {
		t.Fatal(err)
	}
	r.failover(t)
	r.assertDeleted(t, r.saw)
}
