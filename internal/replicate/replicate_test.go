package replicate

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

func site(name string, rank uint64) superpeer.SiteInfo {
	return superpeer.SiteInfo{Name: name, Rank: rank, BaseURL: "http://" + name}
}

func testView(names ...string) superpeer.View {
	v := superpeer.View{Epoch: 3}
	for i, n := range names {
		v.Group = append(v.Group, site(n, uint64(100-i)))
	}
	v.SuperPeer = v.Group[0]
	return v
}

func TestQuorum(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3}
	for k, want := range cases {
		if got := Quorum(k); got != want {
			t.Errorf("Quorum(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestReplicaSetDeterministicWalk(t *testing.T) {
	v := testView("a", "b", "c", "d")
	// Ranked order is a(100), b(99), c(98), d(97).
	got := ReplicaSet(v, "b", 3)
	if len(got) != 2 || got[0].Name != "c" || got[1].Name != "d" {
		t.Fatalf("ReplicaSet(b, 3) = %v", got)
	}
	// Wrap-around from the tail.
	got = ReplicaSet(v, "d", 3)
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("ReplicaSet(d, 3) = %v", got)
	}
	// k capped by group size.
	got = ReplicaSet(testView("a", "b"), "a", 5)
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("ReplicaSet small group = %v", got)
	}
	// Singleton group or k<=1: no replicas.
	if got := ReplicaSet(testView("a"), "a", 3); got != nil {
		t.Fatalf("singleton group got %v", got)
	}
	if got := ReplicaSet(v, "a", 1); got != nil {
		t.Fatalf("k=1 got %v", got)
	}
	// Unknown owner: no replicas rather than a wrong guess.
	if got := ReplicaSet(v, "zz", 3); got != nil {
		t.Fatalf("unknown owner got %v", got)
	}
}

func TestHolderFreshnessAndStatus(t *testing.T) {
	h := NewHolder(nil)
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	doc := xmlutil.NewNode("Doc", "v1")
	if !h.Put("s1", "atr", "povray", doc, t0, t0.Add(time.Hour)) {
		t.Fatal("first put not applied")
	}
	// Older LUT must not overwrite.
	if h.Put("s1", "atr", "povray", xmlutil.NewNode("Doc", "old"), t0.Add(-time.Minute), t0) {
		t.Fatal("stale put applied")
	}
	// Newer LUT wins.
	if !h.Put("s1", "atr", "povray", xmlutil.NewNode("Doc", "v2"), t0.Add(time.Minute), t0) {
		t.Fatal("fresh put not applied")
	}
	h.Put("s1", "adr", "povray-dep", doc, t0.Add(2*time.Minute), t0)
	n, last, promoted := h.Status("s1")
	if n != 2 || !last.Equal(t0.Add(2*time.Minute)) || promoted {
		t.Fatalf("Status = (%d, %v, %v)", n, last, promoted)
	}
	if !h.Has("s1", "atr", "povray", t0.Add(time.Minute)) {
		t.Fatal("Has missed fresh entry")
	}
	if h.Has("s1", "atr", "povray", t0.Add(time.Hour)) {
		t.Fatal("Has claimed freshness it lacks")
	}
	if !h.Delete("s1", "adr", "povray-dep", t0.Add(3*time.Minute)) {
		t.Fatal("delete missed held entry")
	}
	if n, _, _ := h.Status("s1"); n != 1 {
		t.Fatalf("after delete Status entries = %d", n)
	}
	h.SetPromoted("s1", true)
	if !h.Promoted("s1") {
		t.Fatal("promoted flag lost")
	}
}

// recordingJournal keeps the last record journaled per key, as the
// store's registry state does.
type recordingJournal struct {
	puts    int
	records map[string]Entry
}

func (j *recordingJournal) RecordPut(key string, doc *xmlutil.Node, lut, term time.Time) {
	j.puts++
	j.records[key] = Entry{Key: key, Doc: doc, LUT: lut, Term: term}
}

func TestHolderWritesThroughJournal(t *testing.T) {
	j := &recordingJournal{records: map[string]Entry{}}
	h := NewHolder(func(origin, reg string) Journal {
		if origin != "s1" || reg != "atr" {
			t.Errorf("factory called with (%q, %q)", origin, reg)
		}
		return j
	})
	t0 := time.Now()
	h.Put("s1", "atr", "x", nil, t0, t0)
	h.Delete("s1", "atr", "x", t0.Add(time.Second))
	// Restore must NOT write back to the journal it replays from.
	h.Restore("s1", "atr", Entry{Key: "x", LUT: t0})
	// The tombstone is journaled as a put, like the entry it replaced.
	if j.puts != 2 {
		t.Fatalf("journal saw %d puts, want 2", j.puts)
	}
}

// TestHolderTombstoneSurvivesRestore: a holder rebuilt from its journal
// keeps the tombstone, its stamp and its power over straggler puts.
func TestHolderTombstoneSurvivesRestore(t *testing.T) {
	j := &recordingJournal{records: map[string]Entry{}}
	h := NewHolder(func(string, string) Journal { return j })
	t1 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	t2 := t1.Add(time.Minute)
	h.Put("s1", "atr", "gone", xmlutil.NewNode("Doc"), t1, t1)
	h.Put("s1", "atr", "kept", xmlutil.NewNode("Doc"), t1, t1)
	h.Delete("s1", "atr", "gone", t2)

	back := NewHolder(nil)
	for _, e := range j.records {
		back.Restore("s1", "atr", e)
	}
	if n, last, _ := back.Status("s1"); n != 1 || !last.Equal(t2) {
		t.Fatalf("restored Status = (%d, %v), want (1, %v): the tombstone's stamp counts", n, last, t2)
	}
	if back.Put("s1", "atr", "gone", xmlutil.NewNode("Doc"), t1, t1) {
		t.Fatal("straggler put resurrected a restored tombstone")
	}
	if es := back.Records("s1")["atr"]; len(es) != 2 || !es[0].Deleted || es[0].Doc != nil || es[1].Deleted {
		t.Fatalf("restored records = %+v, want the gone tombstone and the kept entry", es)
	}
}

// TestHolderTombstoneOrdering pins the out-of-order fan-out cases: the
// replica must converge to the origin's final state no matter which
// order a key's put and delete arrive in.
func TestHolderTombstoneOrdering(t *testing.T) {
	h := NewHolder(nil)
	t1 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	t2 := t1.Add(time.Minute)
	t3 := t2.Add(time.Minute)

	// Delete (stamped t2) arrives BEFORE the put it follows (t1): the
	// straggler put must not resurrect the deleted entry.
	h.Delete("s1", "atr", "gone", t2)
	if h.Put("s1", "atr", "gone", xmlutil.NewNode("Doc"), t1, t1.Add(time.Hour)) {
		t.Fatal("put older than tombstone resurrected a deleted entry")
	}
	if n, _, _ := h.Status("s1"); n != 0 {
		t.Fatalf("entries after straggler put = %d, want 0", n)
	}
	// A genuinely newer put (a re-registration at t3) clears the tombstone.
	if !h.Put("s1", "atr", "gone", xmlutil.NewNode("Doc", "v2"), t3, t3.Add(time.Hour)) {
		t.Fatal("re-registration newer than tombstone dropped")
	}

	// Reversed pair the other way: the held copy (t3) is newer than a
	// straggler delete stamped t2, so the delete must be ignored.
	if h.Delete("s1", "atr", "gone", t2) {
		t.Fatal("delete older than the held entry applied")
	}
	if !h.Has("s1", "atr", "gone", t3) {
		t.Fatal("newer entry lost to a straggler delete")
	}

	// A zero stamp orders oldest: it cannot delete a stamped entry.
	if h.Delete("s1", "atr", "gone", time.Time{}) {
		t.Fatal("zero-stamped delete beat a stamped entry")
	}
}

// TestRestoreKeepsFreshest: replaying a WAL holding several generations
// of one key must leave the newest installed regardless of replay order.
func TestRestoreKeepsFreshest(t *testing.T) {
	h := NewHolder(nil)
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	h.Restore("s1", "atr", Entry{Key: "x", Doc: xmlutil.NewNode("Doc", "new"), LUT: t0.Add(time.Minute)})
	h.Restore("s1", "atr", Entry{Key: "x", Doc: xmlutil.NewNode("Doc", "old"), LUT: t0})
	es := h.Entries("s1", "atr")
	if len(es) != 1 || es[0].Doc.Text != "new" {
		t.Fatalf("stale WAL generation won the restore: %+v", es)
	}
}

func TestMutationRoundTrip(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 123456789, time.UTC)
	m := Mutation{Origin: "s1", Epoch: 7, Seq: 42, Reg: "atr", Key: "povray",
		Doc: xmlutil.NewNode("ActivityType", "x"), LUT: t0, Term: t0.Add(time.Hour)}
	got, err := MutationFromXML(m.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != "s1" || got.Epoch != 7 || got.Seq != 42 || got.Reg != "atr" ||
		got.Key != "povray" || !got.LUT.Equal(t0) || !got.Term.Equal(t0.Add(time.Hour)) ||
		got.Doc == nil || got.Doc.Text != "x" {
		t.Fatalf("round trip mangled mutation: %+v", got)
	}
	d := Mutation{Origin: "s1", Epoch: 7, Reg: "adr", Key: "dep", Delete: true}
	got, err = MutationFromXML(d.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Delete || got.Reg != "adr" || got.Key != "dep" {
		t.Fatalf("delete round trip: %+v", got)
	}
	if _, err := MutationFromXML(xmlutil.NewNode("Replicate")); err == nil {
		t.Fatal("originless mutation accepted")
	}
}

// TestEntriesRoundTrip: a fetch/hand-off payload carries each record as
// the same <Put> or <Delete> op a Replicate body carries.
func TestEntriesRoundTrip(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	in := map[string][]Entry{
		"atr": {{Key: "a", Doc: xmlutil.NewNode("T"), LUT: t0, Term: t0.Add(time.Hour)}},
		"adr": {{Key: "b", LUT: t0.Add(time.Minute), Deleted: true}},
	}
	payload := EntriesToXML("s2", in)
	if len(payload.All("Put")) != 1 || len(payload.All("Delete")) != 1 {
		t.Fatalf("payload ops = %s, want one Put and one Delete", payload.String())
	}
	origin, out, err := EntriesFromXML(payload)
	if err != nil {
		t.Fatal(err)
	}
	if origin != "s2" || len(out["atr"]) != 1 || len(out["adr"]) != 1 {
		t.Fatalf("entries round trip: origin=%q out=%v", origin, out)
	}
	if out["atr"][0].Key != "a" || !out["atr"][0].LUT.Equal(t0) || out["atr"][0].Doc == nil || out["atr"][0].Deleted {
		t.Fatalf("atr entry mangled: %+v", out["atr"][0])
	}
	if b := out["adr"][0]; b.Key != "b" || !b.Deleted || !b.LUT.Equal(t0.Add(time.Minute)) {
		t.Fatalf("adr tombstone mangled: %+v", b)
	}
}

func quorumReplicator(t *testing.T, k int, call CallFunc) *Replicator {
	t.Helper()
	v := testView("self", "r1", "r2")
	return New(Config{
		Self: v.Group[0], K: k,
		View:    func() superpeer.View { return v },
		Call:    call,
		Service: "RDM",
		Timeout: 500 * time.Millisecond,
		Tel:     telemetry.New("self"),
	})
}

func TestAwaitQuorumSucceedsWithOneRemoteAck(t *testing.T) {
	var calls int32
	r := quorumReplicator(t, 3, func(ctx context.Context, addr, op string, body *xmlutil.Node) (*xmlutil.Node, error) {
		// One replica acks, the other is down: 2 of 3 copies = quorum at k=3.
		if atomic.AddInt32(&calls, 1) == 1 {
			return xmlutil.NewNode("OK"), nil
		}
		return nil, errors.New("unreachable")
	})
	r.ForwardPut("atr", "povray", xmlutil.NewNode("T"), time.Now(), time.Now().Add(time.Hour), true)
	if err := r.AwaitQuorum("atr", "povray"); err != nil {
		t.Fatalf("quorum should hold with one remote ack: %v", err)
	}
}

// TestOwnerVotesOnlyWhenDurable: at K = 3 with one of the two replicas
// refusing, the write quorum of two copies holds only if the owner's own
// WAL append succeeded. An owner whose append failed is not a copy, so
// one remote ack is not enough.
func TestOwnerVotesOnlyWhenDurable(t *testing.T) {
	for _, durable := range []bool{true, false} {
		r := quorumReplicator(t, 3, func(ctx context.Context, addr, op string, body *xmlutil.Node) (*xmlutil.Node, error) {
			if addr == "http://r2/wsrf/services/RDM" {
				return nil, errors.New("refused")
			}
			return xmlutil.NewNode("Applied"), nil
		})
		r.ForwardPut("atr", "povray", xmlutil.NewNode("T"), time.Now(), time.Now().Add(time.Hour), durable)
		err := r.AwaitQuorum("atr", "povray")
		if durable && err != nil {
			t.Fatalf("durable owner plus one remote ack must reach quorum: %v", err)
		}
		if !durable && err == nil {
			t.Fatal("quorum acknowledged with one remote ack and a failed owner append")
		}
	}
}

func TestAwaitQuorumFailsWhenAllReplicasDown(t *testing.T) {
	r := quorumReplicator(t, 3, func(ctx context.Context, addr, op string, body *xmlutil.Node) (*xmlutil.Node, error) {
		return nil, errors.New("unreachable")
	})
	r.ForwardPut("atr", "povray", xmlutil.NewNode("T"), time.Now(), time.Now().Add(time.Hour), true)
	if err := r.AwaitQuorum("atr", "povray"); err == nil {
		t.Fatal("quorum reported with zero remote acks")
	}
	if r.QuorumFailures.Value() == 0 {
		t.Fatal("quorum failure not counted")
	}
}

// TestAwaitQuorumFailsAfterDrainWithoutQuorum pins the settle/await race:
// when every send fails FAST (connection refused to down replicas), the
// fan-out drains before the caller reaches AwaitQuorum. The drained-
// without-quorum result must persist as a terminal failure — a missing
// pending entry must never be read as success, or the client would be
// acked with zero remote copies.
func TestAwaitQuorumFailsAfterDrainWithoutQuorum(t *testing.T) {
	r := quorumReplicator(t, 3, func(ctx context.Context, addr, op string, body *xmlutil.Node) (*xmlutil.Node, error) {
		return nil, errors.New("connection refused")
	})
	r.ForwardPut("atr", "povray", xmlutil.NewNode("T"), time.Now(), time.Now().Add(time.Hour), true)
	// The in-flight gauge hits zero only after every goroutine has run
	// settle, so this waits out the full drain before awaiting.
	for i := 0; r.Lag.Value() != 0; i++ {
		if i > 1000 {
			t.Fatal("fan-out never drained")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := r.AwaitQuorum("atr", "povray"); err == nil {
		t.Fatal("drained-without-quorum fan-out acknowledged")
	}
	// The failure is terminal, not a timeout: it must surface immediately.
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("terminal quorum failure took %v (timed out instead)", elapsed)
	}
	if r.QuorumFailures.Value() == 0 {
		t.Fatal("quorum failure not counted")
	}
	// The terminal result is consumed: a later await of the same key (a
	// new mutation would have replaced the entry anyway) is clean.
	if err := r.AwaitQuorum("atr", "povray"); err != nil {
		t.Fatalf("consumed failure resurfaced: %v", err)
	}
}

func TestAwaitQuorumNoReplicasIsTrivial(t *testing.T) {
	v := testView("self")
	r := New(Config{Self: v.Group[0], K: 3,
		View: func() superpeer.View { return v },
		Call: func(ctx context.Context, addr, op string, body *xmlutil.Node) (*xmlutil.Node, error) {
			t.Fatal("no call expected for a singleton group")
			return nil, nil
		},
		Timeout: 100 * time.Millisecond})
	r.ForwardPut("atr", "x", nil, time.Now(), time.Now(), true)
	if err := r.AwaitQuorum("atr", "x"); err != nil {
		t.Fatalf("singleton group must self-quorum: %v", err)
	}
}

func TestApplyEpochFence(t *testing.T) {
	r := quorumReplicator(t, 3, nil)
	// "r1" is a real group member whose replica set includes "self".
	m := Mutation{Origin: "r1", Epoch: 2, Reg: "atr", Key: "x", LUT: time.Now()}
	if err := r.Apply(m); err == nil {
		t.Fatal("stale-epoch mutation accepted")
	}
	if r.StaleEpoch.Value() == 0 {
		t.Fatal("stale epoch not counted")
	}
	m.Epoch = 3
	if err := r.Apply(m); err != nil {
		t.Fatalf("current-epoch mutation rejected: %v", err)
	}
	if n, _, _ := r.Holder().Status("r1"); n != 1 {
		t.Fatalf("applied mutation not held, entries=%d", n)
	}
}

// TestApplyRejectsNonReplicaOrigin: a mutation from an origin whose
// replica set (under OUR view) does not include this site must not seed
// shadow state — promotion would later treat it as a caught-up copy.
func TestApplyRejectsNonReplicaOrigin(t *testing.T) {
	// K=2 over (self, r1, r2) ranked in that order: r1's single replica
	// is r2, so self is NOT in r1's set; r2's set wraps around to self.
	r := quorumReplicator(t, 2, nil)
	m := Mutation{Origin: "r1", Epoch: 3, Reg: "atr", Key: "x", LUT: time.Now()}
	if err := r.Apply(m); err == nil {
		t.Fatal("mutation from a non-replica origin accepted")
	}
	if r.Misrouted.Value() == 0 {
		t.Fatal("misrouted mutation not counted")
	}
	if n, _, _ := r.Holder().Status("r1"); n != 0 {
		t.Fatalf("rejected mutation still seeded %d entries", n)
	}
	// An unknown origin (not in the view at all) is equally rejected.
	if err := r.Apply(Mutation{Origin: "s9", Epoch: 3, Reg: "atr", Key: "x", LUT: time.Now()}); err == nil {
		t.Fatal("mutation from an unknown origin accepted")
	}
	m.Origin = "r2"
	if err := r.Apply(m); err != nil {
		t.Fatalf("mutation from a legitimate origin rejected: %v", err)
	}
}
