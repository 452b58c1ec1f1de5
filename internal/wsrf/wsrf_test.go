package wsrf

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"glare/internal/simclock"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

func newHome(clock simclock.Clock) *Home {
	return NewHome("http://x/wsrf/services/ATR", "ActivityTypeKey", clock)
}

func TestCreateFindDestroy(t *testing.T) {
	h := newHome(nil)
	doc := xmlutil.MustParse(`<ActivityTypeEntry name="JPOVray"/>`)
	r, err := h.Create("JPOVray", doc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Find("JPOVray") != r {
		t.Fatal("Find failed")
	}
	if _, err := h.Create("JPOVray", doc); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if _, err := h.Create("", doc); err == nil {
		t.Fatal("empty key must fail")
	}
	if !h.Destroy("JPOVray") {
		t.Fatal("destroy failed")
	}
	if h.Destroy("JPOVray") {
		t.Fatal("double destroy must report false")
	}
	if h.Find("JPOVray") != nil {
		t.Fatal("destroyed resource still findable")
	}
	if !r.destroyed {
		t.Fatal("resource not marked destroyed")
	}
}

func TestDocumentIsolation(t *testing.T) {
	h := newHome(nil)
	r, _ := h.Create("a", xmlutil.MustParse(`<P><v>1</v></P>`))
	doc := r.Document()
	doc.First("v").Text = "mutated"
	if r.Document().ChildText("v") != "1" {
		t.Fatal("Document() must return a copy")
	}
}

func TestUpdateBumpsLastUpdate(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	h := newHome(v)
	r, _ := h.Create("a", nil)
	t0 := r.LastUpdate()
	v.Advance(time.Second)
	if !h.Update("a", func(doc *xmlutil.Node) { doc.Elem("x") }) {
		t.Fatal("update of a live resource reported missing")
	}
	if !r.LastUpdate().After(t0) {
		t.Fatal("LastUpdate not bumped")
	}
	var hasX bool
	r.Read(func(doc *xmlutil.Node) { hasX = doc.First("x") != nil })
	if !hasX {
		t.Fatal("update lost")
	}
}

func TestLifetimeAndSweep(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	h := newHome(v)
	a, _ := h.Create("a", nil)
	b, _ := h.Create("b", nil)
	h.SetTermination("a", v.Now().Add(10*time.Second))
	if a.Expired(v.Now()) {
		t.Fatal("not yet expired")
	}
	v.Advance(11 * time.Second)
	if !a.Expired(v.Now()) {
		t.Fatal("should be expired")
	}
	if b.Expired(v.Now()) {
		t.Fatal("b has no termination time")
	}
	gone := h.SweepExpired()
	if len(gone) != 1 || gone[0] != "a" {
		t.Fatalf("swept %v", gone)
	}
	if h.Len() != 1 {
		t.Fatalf("len = %d", h.Len())
	}
}

func TestOnDestroyListener(t *testing.T) {
	h := newHome(nil)
	var mu sync.Mutex
	var destroyed []string
	h.OnDestroy(func(r *Resource) {
		mu.Lock()
		destroyed = append(destroyed, r.Key())
		mu.Unlock()
	})
	h.Create("x", nil)
	h.Destroy("x")
	mu.Lock()
	defer mu.Unlock()
	if len(destroyed) != 1 || destroyed[0] != "x" {
		t.Fatalf("listener saw %v", destroyed)
	}
}

func TestEPRMinting(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	h := newHome(v)
	h.Create("jpovray", nil)
	e := h.EPR("jpovray")
	if e.Address != "http://x/wsrf/services/ATR" || e.KeyName != "ActivityTypeKey" || e.Key != "jpovray" {
		t.Fatalf("EPR = %+v", e)
	}
	if e.LastUpdateTime.IsZero() {
		t.Fatal("EPR must carry LUT for existing resource")
	}
}

func TestKeysSortedAndAll(t *testing.T) {
	h := newHome(nil)
	for _, k := range []string{"c", "a", "b"} {
		h.Create(k, nil)
	}
	keys := h.Keys()
	if fmt.Sprint(keys) != "[a b c]" {
		t.Fatalf("keys = %v", keys)
	}
	all := h.All()
	if len(all) != 3 || all[0].Key() != "a" {
		t.Fatal("All not sorted")
	}
}

func TestServiceGroupAggregationAndQuery(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	h := newHome(v)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("t%d", i)
		doc := xmlutil.NewNode("ActivityTypeEntry")
		doc.SetAttr("name", key)
		h.Create(key, doc)
	}
	g := NewServiceGroup("atr", v)
	g.Refresh(h)
	if g.Len() != 5 {
		t.Fatalf("group len = %d", g.Len())
	}
	res := g.Query(xpath.MustCompile(`//ActivityTypeEntry[@name='t3']`))
	if len(res.Nodes) != 1 {
		t.Fatalf("query = %d nodes", len(res.Nodes))
	}
	// Destroy one source and refresh: entry must disappear.
	h.Destroy("t3")
	g.Refresh(h)
	if g.Len() != 4 {
		t.Fatalf("after refresh len = %d", g.Len())
	}
	if !g.Query(xpath.MustCompile(`//ActivityTypeEntry[@name='t3']`)).Empty() {
		t.Fatal("stale entry survived refresh")
	}
}

func TestServiceGroupRemoveEntry(t *testing.T) {
	g := NewServiceGroup("g", nil)
	h := newHome(nil)
	h.Create("a", nil)
	g.Refresh(h)
	if !g.RemoveEntry("a") {
		t.Fatal("remove failed")
	}
	if g.RemoveEntry("a") {
		t.Fatal("double remove must be false")
	}
}

func TestBrokerPublishSubscribe(t *testing.T) {
	b := NewBroker(nil)
	var mu sync.Mutex
	var got []Notification
	_, err := b.Subscribe(TopicDeployment, SinkFunc(func(n Notification) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n := b.Publish(TopicDeployment, "jpovray", xmlutil.NewNode("Deployed")); n != 1 {
		t.Fatalf("published to %d sinks", n)
	}
	if n := b.Publish("OtherTopic", "x", nil); n != 0 {
		t.Fatal("published to wrong topic")
	}
	mu.Lock()
	if len(got) != 1 || got[0].Producer != "jpovray" {
		t.Fatalf("got %v", got)
	}
	mu.Unlock()
}

func TestBrokerErrors(t *testing.T) {
	b := NewBroker(nil)
	if _, err := b.Subscribe("", SinkFunc(func(Notification) {})); err == nil {
		t.Fatal("empty topic must fail")
	}
	if _, err := b.Subscribe("t", nil); err == nil {
		t.Fatal("nil sink must fail")
	}
}

func TestBrokerManySinks(t *testing.T) {
	b := NewBroker(nil)
	const sinks = 100
	var mu sync.Mutex
	delivered := 0
	for i := 0; i < sinks; i++ {
		b.Subscribe("t", SinkFunc(func(Notification) {
			mu.Lock()
			delivered++
			mu.Unlock()
		}))
	}
	if n := b.Publish("t", "p", nil); n != sinks {
		t.Fatalf("published %d", n)
	}
	if delivered != sinks {
		t.Fatalf("delivered %d", delivered)
	}
}

func TestConcurrentHomeAccess(t *testing.T) {
	h := newHome(nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				key := fmt.Sprintf("r%d-%d", i, j)
				h.Create(key, nil)
				h.Find(key)
				if j%2 == 0 {
					h.Destroy(key)
				}
			}
		}(i)
	}
	wg.Wait()
	if h.Len() != 16*25 {
		t.Fatalf("len = %d, want %d", h.Len(), 16*25)
	}
}

// TestRestoreExpiredResource pins the recovery-meets-lifetime corner: a
// journal can legitimately replay a resource whose scheduled termination
// time passed while the site was down. Restore must install it verbatim
// (recovery is not the place for lifecycle policy, and it must not stamp
// "now"), and the next SweepExpired pass — not the restore — destroys it.
func TestRestoreExpiredResource(t *testing.T) {
	start := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	v := simclock.NewVirtual(start)
	h := newHome(v)

	lut := start.Add(-2 * time.Hour)
	term := start.Add(-time.Hour) // already in the past at restore time
	r := h.Restore("stale", xmlutil.MustParse(`<P>old</P>`), lut, term)
	if got := h.Find("stale"); got != r {
		t.Fatal("expired resource must still be installed by Restore")
	}
	if !r.LastUpdate().Equal(lut) {
		t.Fatalf("Restore stamped LastUpdate %v, want journaled %v", r.LastUpdate(), lut)
	}
	if !r.Expired(v.Now()) {
		t.Fatal("restored resource should report expired")
	}

	// A fresh resource with a future termination must survive the sweep
	// that reaps the stale one.
	h.Restore("fresh", xmlutil.MustParse(`<P>new</P>`), start, start.Add(time.Hour))
	swept := h.SweepExpired()
	if len(swept) != 1 || swept[0] != "stale" {
		t.Fatalf("SweepExpired = %v, want [stale]", swept)
	}
	if h.Find("stale") != nil {
		t.Fatal("expired resource survived the sweep")
	}
	if h.Find("fresh") == nil {
		t.Fatal("unexpired resource reaped by the sweep")
	}
}

// recordingJournal keeps every record a Home journals, in order.
type recordingJournal struct {
	mu      sync.Mutex
	records []string // "put <key> <lut> <doc>" or "delete <key>"
}

func (j *recordingJournal) RecordPut(key string, doc *xmlutil.Node, lut, _ time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = append(j.records, fmt.Sprintf("put %s %s %s", key, lut.Format(time.RFC3339Nano), doc))
}

func (j *recordingJournal) RecordDelete(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = append(j.records, "delete "+key)
}

// take returns and clears the records journaled since the last call.
func (j *recordingJournal) take() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.records
	j.records = nil
	return out
}

// TestHomeJournalsEachMutationOnce pins the Home as the single journaling
// point: every mutator journals exactly one record carrying the state it
// left behind, a mutator that finds no resource journals nothing, and
// Restore — the recovery path — never journals.
func TestHomeJournalsEachMutationOnce(t *testing.T) {
	v := simclock.NewVirtual(time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC))
	h := newHome(v)
	j := &recordingJournal{}
	h.SetJournal(j)
	restoredLUT := v.Now().Add(-time.Hour)
	// put renders the record a put of key's current state must produce.
	put := func(key string) string {
		r := h.Find(key)
		return fmt.Sprintf("put %s %s %s", key, r.LastUpdate().Format(time.RFC3339Nano), r.Document())
	}
	steps := []struct {
		name string
		do   func() bool
		want func() []string
	}{
		{"Restore", func() bool {
			h.Restore("r", xmlutil.MustParse(`<P>restored</P>`), restoredLUT, time.Time{})
			return true
		}, func() []string { return nil }},
		{"Create", func() bool { _, err := h.Create("a", xmlutil.MustParse(`<P/>`)); return err == nil },
			func() []string { return []string{put("a")} }},
		{"Create duplicate", func() bool { _, err := h.Create("a", nil); return err != nil },
			func() []string { return nil }},
		{"Update", func() bool { return h.Update("a", func(doc *xmlutil.Node) { doc.Elem("x") }) },
			func() []string { return []string{put("a")} }},
		{"Replace", func() bool { return h.Replace("a", xmlutil.MustParse(`<P><y/></P>`)) },
			func() []string { return []string{put("a")} }},
		{"SetTermination", func() bool { return h.SetTermination("a", v.Now().Add(time.Minute)) },
			func() []string { return []string{put("a")} }},
		{"Adopt", func() bool {
			h.Adopt("b", xmlutil.MustParse(`<P>adopted</P>`), v.Now().Add(-time.Minute), time.Time{})
			return true
		}, func() []string { return []string{put("b")} }},
		{"Destroy", func() bool { return h.Destroy("b") }, func() []string { return []string{"delete b"} }},
		{"SweepExpired", func() bool {
			v.Advance(2 * time.Minute)
			gone := h.SweepExpired()
			return len(gone) == 1 && gone[0] == "a"
		}, func() []string { return []string{"delete a"} }},
		{"mutators on a missing key", func() bool {
			return !h.Update("a", func(*xmlutil.Node) {}) && !h.Replace("a", nil) &&
				!h.SetTermination("a", time.Time{}) && !h.Destroy("a")
		}, func() []string { return nil }},
	}
	for _, s := range steps {
		v.Advance(time.Second)
		if !s.do() {
			t.Fatalf("%s: unexpected outcome", s.name)
		}
		if got, want := j.take(), s.want(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s journaled %q, want %q", s.name, got, want)
		}
	}
	// Timestamps reads what Restore installed, verbatim.
	if lut, term, ok := h.Timestamps("r"); !ok || !term.IsZero() || !lut.Equal(restoredLUT) {
		t.Fatalf("Timestamps(r) = %v, %v, %v", lut, term, ok)
	}
}

// foldingJournal folds records into the state a replay would rebuild:
// last write wins per key, a delete removes the key. Each record yields
// before it lands, widening the window in which a home that did not hold
// its locks across the call would let another record overtake it.
type foldingJournal struct {
	mu   sync.Mutex
	docs map[string]string
}

func (j *foldingJournal) RecordPut(key string, doc *xmlutil.Node, _, _ time.Time) {
	runtime.Gosched()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.docs[key] = doc.String()
}

func (j *foldingJournal) RecordDelete(key string) {
	runtime.Gosched()
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.docs, key)
}

// TestConcurrentMutationsReplayToLiveState races every journaling mutator
// over a few shared keys and checks that replaying the journal rebuilds
// exactly the live home: a key's records must reach the journal in the
// order its mutations applied, across destroys, re-creations and
// adoptions.
func TestConcurrentMutationsReplayToLiveState(t *testing.T) {
	h := newHome(nil)
	j := &foldingJournal{docs: map[string]string{}}
	h.SetJournal(j)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", (g+i)%4)
				tag := fmt.Sprintf("%d-%d", g, i)
				switch (g*7 + i) % 6 {
				case 0:
					h.Create(key, xmlutil.NewNode("P").SetAttr("v", tag))
				case 1:
					h.Update(key, func(doc *xmlutil.Node) { doc.SetAttr("v", tag) })
				case 2:
					h.Replace(key, xmlutil.NewNode("P").SetAttr("v", tag))
				case 3:
					h.SetTermination(key, time.Unix(int64(i), 0))
				case 4:
					h.Destroy(key)
				case 5:
					h.Adopt(key, xmlutil.NewNode("P").SetAttr("v", tag), time.Unix(int64(i), 0), time.Time{})
				}
			}
		}(g)
	}
	wg.Wait()
	live := map[string]string{}
	for _, r := range h.All() {
		live[r.Key()] = r.Document().String()
	}
	if fmt.Sprint(live) != fmt.Sprint(j.docs) {
		t.Fatalf("journal replays to %v, live home is %v", j.docs, live)
	}
}

// blockingJournal records puts and deletes in order; a delete signals
// entered and then waits for release before it lands.
type blockingJournal struct {
	recordingJournal
	entered, release chan struct{}
}

func (j *blockingJournal) RecordDelete(key string) {
	close(j.entered)
	<-j.release
	j.recordingJournal.RecordDelete(key)
}

// TestDestroyJournalsWithoutBlockingLookups holds a Destroy inside its
// journal write. Lookups of the home must not wait on it, and a Create or
// Adopt reusing the key must wait, so its put lands after the delete and a
// replay does not end with the key missing.
func TestDestroyJournalsWithoutBlockingLookups(t *testing.T) {
	reusers := map[string]func(h *Home){
		"Create": func(h *Home) { h.Create("k", nil) },
		"Adopt":  func(h *Home) { h.Adopt("k", xmlutil.NewNode("P"), time.Unix(1, 0), time.Time{}) },
	}
	for name, reuse := range reusers {
		t.Run(name, func(t *testing.T) {
			h := newHome(nil)
			h.Create("k", nil)
			h.Create("other", nil)
			j := &blockingJournal{entered: make(chan struct{}), release: make(chan struct{})}
			h.SetJournal(j)
			destroyed := make(chan struct{})
			go func() { h.Destroy("k"); close(destroyed) }()
			<-j.entered
			looked := make(chan bool)
			go func() { looked <- h.Find("other") != nil && h.Find("k") == nil && h.Len() == 1 }()
			select {
			case ok := <-looked:
				if !ok {
					t.Fatal("lookups during the delete saw the wrong resources")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("lookups waited on the delete's journal write")
			}
			reused := make(chan struct{})
			go func() { reuse(h); close(reused) }()
			select {
			case <-reused:
				t.Fatal("the key was reused before its delete was journaled")
			case <-time.After(50 * time.Millisecond):
			}
			close(j.release)
			<-destroyed
			<-reused
			if got := j.take(); len(got) != 2 || got[0] != "delete k" || !strings.HasPrefix(got[1], "put k ") {
				t.Fatalf("journal = %q, want the delete of k before its new put", got)
			}
		})
	}
}

// lutJournal records the LastUpdate of every put, per key, in journal
// order.
type lutJournal struct {
	mu   sync.Mutex
	luts map[string][]time.Time
}

func (j *lutJournal) RecordPut(key string, _ *xmlutil.Node, lut, _ time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.luts[key] = append(j.luts[key], lut)
}

func (j *lutJournal) RecordDelete(string) {}

// TestConcurrentUpdatesJournalStampsInOrder races stamped mutations of a
// few keys against a stamp source that yields between drawing and
// returning a stamp. A key's journaled LastUpdates must never decrease,
// and the live LastUpdate must be the last one journaled: replica holders
// keep the newest stamp, so a mutation journaled behind a newer stamp
// would be dropped on failover.
func TestConcurrentUpdatesJournalStampsInOrder(t *testing.T) {
	h := newHome(nil)
	var tick atomic.Int64
	h.SetStamp(func() time.Time {
		n := tick.Add(1)
		runtime.Gosched()
		return time.Unix(0, n)
	})
	keys := []string{"k0", "k1", "k2"}
	for _, k := range keys {
		if _, err := h.Create(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	j := &lutJournal{luts: map[string][]time.Time{}}
	h.SetJournal(j)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := keys[(g+i)%len(keys)]
				if i%2 == 0 {
					h.Update(key, func(doc *xmlutil.Node) { doc.SetAttr("v", fmt.Sprint(g, i)) })
				} else {
					h.Replace(key, xmlutil.NewNode("P"))
				}
			}
		}(g)
	}
	wg.Wait()
	for _, k := range keys {
		luts := j.luts[k]
		for i := 1; i < len(luts); i++ {
			if luts[i].Before(luts[i-1]) {
				t.Fatalf("%s: journaled stamp %d (%v) is older than the one before it (%v)",
					k, i, luts[i].UnixNano(), luts[i-1].UnixNano())
			}
		}
		if live := h.Find(k).LastUpdate(); !live.Equal(luts[len(luts)-1]) {
			t.Fatalf("%s: live stamp %v, last journaled %v", k, live.UnixNano(), luts[len(luts)-1].UnixNano())
		}
	}
}
