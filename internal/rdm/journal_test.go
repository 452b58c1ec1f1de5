package rdm

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"glare/internal/faultinject"
	"glare/internal/replicate"
	"glare/internal/simclock"
	"glare/internal/store"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

// journalReplicator is an owner's replicator at K = 3 over the group
// (owner, r1, r2), sending through call.
func journalReplicator(call replicate.CallFunc) *replicate.Replicator {
	v := superpeer.View{Epoch: 1}
	for i, name := range []string{"owner", "r1", "r2"} {
		v.Group = append(v.Group, superpeer.SiteInfo{Name: name, Rank: uint64(100 - i), BaseURL: "http://" + name})
	}
	v.SuperPeer = v.Group[0]
	return replicate.New(replicate.Config{
		Self: v.Group[0], K: 3,
		View:    func() superpeer.View { return v },
		Call:    call,
		Service: ServiceName,
		Timeout: time.Second,
		Tel:     telemetry.New("owner"),
	})
}

// TestSiteJournalOwnerVoteNeedsDurableAppend drives the site journal with
// one of the owner's two replicas refusing every send. With a healthy
// store the owner's WAL copy plus the one remote ack make the K = 3
// quorum. With a store that crashed mid-append the owner holds no durable
// copy, so the same single ack must not acknowledge the registration.
func TestSiteJournalOwnerVoteNeedsDurableAppend(t *testing.T) {
	for _, crash := range []bool{false, true} {
		crasher := faultinject.NewStoreCrasher()
		st, err := store.Open(store.Options{Dir: t.TempDir(), Fsync: store.FsyncNever, AppendHook: crasher.Hook})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		if crash {
			crasher.ArmAfter(1, 0.5)
		}
		repl := journalReplicator(func(_ context.Context, address, _ string, _ *xmlutil.Node) (*xmlutil.Node, error) {
			if strings.HasPrefix(address, "http://r2/") {
				return nil, errors.New("refused")
			}
			return xmlutil.NewNode("Applied"), nil
		})
		j := registryJournal{&siteJournal{st: st, repl: repl, now: time.Now}, store.RegATR}
		j.RecordPut("JPOVray", xmlutil.NewNode("ActivityTypeEntry"), time.Now(), time.Time{})
		if crasher.Crashed() != crash {
			t.Fatalf("crash=%v: crasher fired = %v", crash, crasher.Crashed())
		}
		err = repl.AwaitQuorum(store.RegATR, "JPOVray")
		if crash && err == nil {
			t.Fatal("quorum acknowledged with one remote ack after the owner's WAL append failed")
		}
		if !crash && err != nil {
			t.Fatalf("durable owner plus one remote ack must reach quorum: %v", err)
		}
	}
}

// TestJournaledDocumentCopiedForReplication pins the live-document
// contract: the home hands the site journal its live document, so the
// replication fan-out must copy it before the asynchronous sends. The
// owner's sends are held until the test has updated the same key; the
// replica must still receive the document as it was journaled.
func TestJournaledDocumentCopiedForReplication(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var sent []*xmlutil.Node
	var wg sync.WaitGroup
	repl := journalReplicator(func(_ context.Context, _, _ string, body *xmlutil.Node) (*xmlutil.Node, error) {
		defer wg.Done()
		<-release
		mu.Lock()
		defer mu.Unlock()
		sent = append(sent, body)
		return xmlutil.NewNode("Applied"), nil
	})
	home := wsrf.NewHome("http://owner/ATR", "ActivityTypeKey", simclock.NewVirtual(time.Time{}))
	home.SetJournal(registryJournal{&siteJournal{repl: repl, now: time.Now}, store.RegATR})

	wg.Add(2) // one Replicate send per replica
	if _, err := home.Create("JPOVray", xmlutil.MustParse(`<ActivityTypeEntry version="1"/>`)); err != nil {
		t.Fatal(err)
	}
	wg.Add(2)
	home.Update("JPOVray", func(doc *xmlutil.Node) {
		doc.SetAttr("version", "2")
		doc.Elem("Installation")
	})
	close(release)
	wg.Wait()

	var first, second []string
	for _, body := range sent {
		m, err := replicate.MutationFromXML(body)
		if err != nil {
			t.Fatal(err)
		}
		switch m.Seq {
		case 1:
			first = append(first, m.Doc.String())
		case 2:
			second = append(second, m.Doc.String())
		}
	}
	if want := `<ActivityTypeEntry version="1"/>`; len(first) != 2 || first[0] != want || first[1] != want {
		t.Fatalf("replicas received %q for the create, want %q twice", first, want)
	}
	if want := `<ActivityTypeEntry version="2"><Installation/></ActivityTypeEntry>`; len(second) != 2 || second[0] != want || second[1] != want {
		t.Fatalf("replicas received %q for the update, want %q twice", second, want)
	}
}
