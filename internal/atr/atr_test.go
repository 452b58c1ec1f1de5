package atr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

func fixture() (*Registry, *simclock.Virtual) {
	v := simclock.NewVirtual(time.Time{})
	return New("http://s1/wsrf/services/"+ServiceName, v, nil), v
}

func imagingTypes() []*activity.Type {
	return []*activity.Type{
		{Name: "Imaging", Abstract: true},
		{Name: "POVray", Abstract: true, Base: []string{"Imaging"}},
		{Name: "JPOVray", Base: []string{"POVray"}, Dependencies: []string{"Java", "Ant"},
			Installation: &activity.Installation{Mode: activity.ModeOnDemand}},
		{Name: "Java"},
		{Name: "Ant"},
	}
}

func TestRegisterLookup(t *testing.T) {
	r, _ := fixture()
	for _, ty := range imagingTypes() {
		if _, err := r.Register(ty); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := r.Lookup("JPOVray")
	if !ok || got.Name != "JPOVray" || len(got.Dependencies) != 2 {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	if _, ok := r.Lookup("Nope"); ok {
		t.Fatal("phantom lookup")
	}
	if r.Len() != 5 {
		t.Fatalf("len = %d", r.Len())
	}
	// Duplicate registration must fail.
	if _, err := r.Register(&activity.Type{Name: "Java"}); err == nil {
		t.Fatal("duplicate type accepted")
	}
	// Invalid type must fail.
	if _, err := r.Register(&activity.Type{}); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestConcreteResolution(t *testing.T) {
	r, _ := fixture()
	for _, ty := range imagingTypes() {
		r.Register(ty)
	}
	concrete, err := r.ConcreteOf("Imaging")
	if err != nil {
		t.Fatal(err)
	}
	if len(concrete) != 1 || concrete[0].Name != "JPOVray" {
		t.Fatalf("concrete = %v", concrete)
	}
}

func TestXPathQuery(t *testing.T) {
	r, _ := fixture()
	for _, ty := range imagingTypes() {
		r.Register(ty)
	}
	res, err := r.QueryString(`//ActivityTypeEntry[@name='JPOVray']`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("query = %d", len(res.Nodes))
	}
	if _, err := r.QueryString(`///`); err == nil {
		t.Fatal("bad xpath accepted")
	}
	// Abstract discovery via XPath.
	res, _ = r.QueryString(`//ActivityTypeEntry[@abstract='true']`)
	if len(res.Nodes) != 2 {
		t.Fatalf("abstract types = %d", len(res.Nodes))
	}
}

func TestDeploymentRefs(t *testing.T) {
	r, v := fixture()
	r.Register(&activity.Type{Name: "JPOVray"})
	dep := r.Home().EPR("JPOVray") // any EPR shape works for the ref
	dep.KeyName = "ActivityDeploymentKey"
	dep.Key = "jpovray"
	dep.LastUpdateTime = v.Now()
	if err := r.AddDeploymentRef("JPOVray", dep); err != nil {
		t.Fatal(err)
	}
	refs := r.DeploymentRefs("JPOVray")
	if len(refs) != 1 || refs[0].Key != "jpovray" {
		t.Fatalf("refs = %v", refs)
	}
	// Re-adding replaces rather than duplicates.
	v.Advance(time.Second)
	dep2 := dep.Touch(v.Now())
	r.AddDeploymentRef("JPOVray", dep2)
	refs = r.DeploymentRefs("JPOVray")
	if len(refs) != 1 || !refs[0].LastUpdateTime.Equal(v.Now()) {
		t.Fatalf("refs after update = %v", refs)
	}
	r.RemoveDeploymentRef("JPOVray", "jpovray")
	if len(r.DeploymentRefs("JPOVray")) != 0 {
		t.Fatal("ref not removed")
	}
	if err := r.AddDeploymentRef("Missing", dep); err == nil {
		t.Fatal("ref on missing type accepted")
	}
}

func TestMarkDeployed(t *testing.T) {
	r, _ := fixture()
	r.Register(&activity.Type{Name: "Wien2k"})
	if err := r.MarkDeployed("Wien2k", "agrid1"); err != nil {
		t.Fatal(err)
	}
	r.MarkDeployed("Wien2k", "agrid1") // idempotent
	r.MarkDeployed("Wien2k", "agrid2")
	on := r.DeployedOn("Wien2k")
	if len(on) != 2 {
		t.Fatalf("deployed on %v", on)
	}
	if err := r.MarkDeployed("Nope", "x"); err == nil {
		t.Fatal("missing type accepted")
	}
}

func TestRemoveFiresListener(t *testing.T) {
	r, _ := fixture()
	r.Register(&activity.Type{Name: "X"})
	var removed []string
	r.OnRemove(func(name string) { removed = append(removed, name) })
	if !r.Remove("X") {
		t.Fatal("remove failed")
	}
	if r.Remove("X") {
		t.Fatal("double remove")
	}
	if len(removed) != 1 || removed[0] != "X" {
		t.Fatalf("listener saw %v", removed)
	}
	// Removed from aggregation too.
	res, _ := r.QueryString(`//ActivityTypeEntry[@name='X']`)
	if !res.Empty() {
		t.Fatal("removed type still aggregated")
	}
}

func TestExpiryCascadePlumbing(t *testing.T) {
	r, v := fixture()
	r.Register(&activity.Type{Name: "Temp"})
	if err := r.SetTermination("Temp", v.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetTermination("Nope", v.Now()); err == nil {
		t.Fatal("missing type accepted")
	}
	if gone := r.SweepExpired(); len(gone) != 0 {
		t.Fatal("premature expiry")
	}
	v.Advance(2 * time.Minute)
	gone := r.SweepExpired()
	if len(gone) != 1 || gone[0] != "Temp" {
		t.Fatalf("swept %v", gone)
	}
}

func TestNotifications(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	broker := wsrf.NewBroker(v)
	r := New("http://s/wsrf/services/ATR", v, broker)
	events := map[string]int{}
	for _, topic := range []string{wsrf.TopicResourceCreated, wsrf.TopicResourceUpdated, wsrf.TopicResourceDestroyed} {
		tp := topic
		broker.Subscribe(tp, wsrf.SinkFunc(func(n wsrf.Notification) { events[tp]++ }))
	}
	r.Register(&activity.Type{Name: "A"})
	e := r.EPR("A")
	e.KeyName = "ActivityDeploymentKey"
	e.Key = "a1"
	r.AddDeploymentRef("A", e)
	r.Remove("A")
	if events[wsrf.TopicResourceCreated] != 1 || events[wsrf.TopicResourceUpdated] != 1 ||
		events[wsrf.TopicResourceDestroyed] != 1 {
		t.Fatalf("events = %v", events)
	}
}

func TestLUT(t *testing.T) {
	r, v := fixture()
	r.Register(&activity.Type{Name: "A"})
	lut1, ok := r.LUT("A")
	if !ok {
		t.Fatal("lut missing")
	}
	v.Advance(time.Second)
	r.MarkDeployed("A", "s")
	lut2, _ := r.LUT("A")
	if !lut2.After(lut1) {
		t.Fatal("LUT not bumped by update")
	}
	if _, ok := r.LUT("Nope"); ok {
		t.Fatal("phantom lut")
	}
}

func TestMountedService(t *testing.T) {
	r, _ := fixture()
	srv := transport.NewServer()
	r.Mount(srv)
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := transport.NewClient(nil)
	url := srv.ServiceURL(ServiceName)

	ty := &activity.Type{Name: "Remote", Domain: "Test"}
	resp, err := cli.Call(url, "RegisterType", ty.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "TypeEPR" {
		t.Fatalf("resp = %s", resp)
	}
	doc, err := cli.Call(url, "GetType", xmlutil.NewNode("Name", "Remote"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := activity.TypeFromXML(doc)
	if err != nil || got.Name != "Remote" {
		t.Fatalf("remote GetType: %v %v", got, err)
	}
	if _, err := cli.Call(url, "GetType", xmlutil.NewNode("Name", "Missing")); err == nil {
		t.Fatal("missing type must fault")
	}
	if _, err := cli.Call(url, "GetLUT", xmlutil.NewNode("Name", "Remote")); err != nil {
		t.Fatal(err)
	}
	lst, err := cli.Call(url, "ListTypes", nil)
	if err != nil || len(lst.All("Type")) != 1 {
		t.Fatalf("list: %v %v", lst, err)
	}
	q, err := cli.Call(url, "Query", xmlutil.NewNode("XPath", `//ActivityTypeEntry[@name='Remote']`))
	if err != nil || len(q.All("ActivityTypeEntry")) != 1 {
		t.Fatalf("query: %v %v", q, err)
	}
	if _, err := cli.Call(url, "RemoveType", xmlutil.NewNode("Name", "Remote")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(url, "RemoveType", xmlutil.NewNode("Name", "Remote")); err == nil {
		t.Fatal("double remove must fault")
	}
}

func TestManyTypesNamedLookupStaysFast(t *testing.T) {
	// Smoke-check the hash path on a large registry (the Fig. 11 claim);
	// timing assertions belong to benchmarks, correctness here.
	r, _ := fixture()
	for i := 0; i < 300; i++ {
		r.Register(&activity.Type{Name: fmt.Sprintf("T%03d", i)})
	}
	if _, ok := r.Lookup("T299"); !ok {
		t.Fatal("lookup failed at scale")
	}
	if got := len(r.Names()); got != 300 {
		t.Fatalf("names = %d", got)
	}
}

// renderResult serializes a query result for byte-level comparison.
func renderResult(res xpath.Result) string {
	var b strings.Builder
	for _, n := range res.Nodes {
		b.WriteString(n.String())
		b.WriteByte('\n')
	}
	b.WriteString(strings.Join(res.Strings, "|"))
	return b.String()
}

// oracleQueries are the expressions Query is compared with its oracle on:
// the three query_xpath predicate shapes, a ".." step, an attribute-final
// path, and shapes that reach an entry, its member EPR or the root.
var oracleQueries = []string{
	`//ActivityTypeEntry[@name='T03']`,
	`//ActivityTypeEntry[BaseType='Base1']`,
	`//ActivityTypeEntry[@type='Domain2']/Installation/Constraints[os='linux']`,
	`//ActivityTypeEntry[DeployedOn='site-1']/..`,
	`//ActivityTypeEntry[@type='Domain0']/@name`,
	`//Entry[@key='T03']`,
	`//Entry/MemberEPR/Address`,
	`//*[@name='T03']`,
	`//ReferenceProperties[LastUpdateTime]`,
	`/ServiceGroup`,
	`//Entry[2]`,
	`//Entry/*[1]`,
}

// TestQueryMatchesServiceGroupOracle is the differential test for Query
// reading the aggregation in place from the home. The oracle is the path
// the registry used to take: a service group refreshed from the same home
// before every query. After every step of seeded mutation sequences —
// registration, deployment refs, deployment marks, lifetime expiry before
// and after the sweep, removal, restore and adoption — both must return
// byte-identical nodes for every expression of oracleQueries.
func TestQueryMatchesServiceGroupOracle(t *testing.T) {
	var exprs []*xpath.Expr
	for _, src := range oracleQueries {
		exprs = append(exprs, xpath.MustCompile(src))
	}
	// hits counts non-empty answers per expression, so the comparison is
	// known to have exercised every shape.
	hits := make([]int, len(exprs))
	for seed := int64(1); seed <= 6; seed++ {
		m := newMutator(seed)
		oracle := wsrf.NewServiceGroup(groupName, m.v)
		check := func(step string) {
			t.Helper()
			oracle.Refresh(m.r.Home())
			doc := oracle.Document()
			for i, e := range exprs {
				res := m.r.Query(e)
				if got, want := renderResult(res), renderResult(e.Select(doc)); got != want {
					t.Fatalf("seed %d, after %s, %s:\n got %s\nwant %s", seed, step, e, got, want)
				}
				if !res.Empty() {
					hits[i]++
				}
			}
		}
		for i := 0; i < 120; i++ {
			m.step(check)
		}
	}
	for i, e := range exprs {
		if hits[i] == 0 {
			t.Errorf("%s never matched anything: the comparison proved nothing for it", e)
		}
	}
}

// FuzzHomeSelect is the differential fuzz target for Query: whatever
// xpath.Compile accepts, Query answers without panicking and renders
// byte-identically to Select over the Document of a service group
// refreshed from the same (fixed, seeded) home.
func FuzzHomeSelect(f *testing.F) {
	for _, src := range oracleQueries {
		f.Add(src)
	}
	m := newMutator(1)
	for i := 0; i < 120; i++ {
		m.step(func(string) {})
	}
	oracle := wsrf.NewServiceGroup(groupName, m.v)
	oracle.Refresh(m.r.Home())
	doc := oracle.Document()
	f.Fuzz(func(t *testing.T, src string) {
		e, err := xpath.Compile(src)
		if err != nil {
			return
		}
		if got, want := renderResult(m.r.Query(e)), renderResult(e.Select(doc)); got != want {
			t.Fatalf("%s:\n got %s\nwant %s", src, got, want)
		}
	})
}

// mutator drives a registry through a seeded sequence of mutations over
// twelve type names: registration, deployment refs, deployment marks,
// lifetime expiry before and after the sweep, removal, restore and
// adoption.
type mutator struct {
	rng     *rand.Rand
	r       *Registry
	v       *simclock.Virtual
	removed map[string]*xmlutil.Node // documents of removed types, for Restore and Adopt
}

func newMutator(seed int64) *mutator {
	r, v := fixture()
	return &mutator{rng: rand.New(rand.NewSource(seed)), r: r, v: v, removed: map[string]*xmlutil.Node{}}
}

// step draws and applies one mutation, then calls check naming it; an
// expiry is also checked before the sweep that follows it. A drawn
// mutation with nothing to act on is skipped without a check.
func (m *mutator) step(check func(op string)) {
	oses := []string{"linux", "aix"}
	rng, r, v := m.rng, m.r, m.v
	name := fmt.Sprintf("T%02d", rng.Intn(12))
	dep := epr.New("http://s1/wsrf/services/ADR", "ActivityDeploymentKey", fmt.Sprintf("dep-%d", rng.Intn(3)))
	dep.LastUpdateTime = v.Now()
	op := ""
	switch rng.Intn(9) {
	case 0, 1:
		op = "Register " + name
		r.Register(&activity.Type{Name: name,
			Domain: fmt.Sprintf("Domain%d", rng.Intn(3)),
			Base:   []string{fmt.Sprintf("Base%d", rng.Intn(3))},
			Installation: &activity.Installation{Mode: activity.ModeOnDemand,
				Constraints: activity.Constraints{OS: oses[rng.Intn(len(oses))]}}})
	case 2:
		op = "AddDeploymentRef " + name
		r.AddDeploymentRef(name, dep)
	case 3:
		op = "RemoveDeploymentRef " + name
		r.RemoveDeploymentRef(name, dep.Key)
	case 4:
		op = "MarkDeployed " + name
		r.MarkDeployed(name, fmt.Sprintf("site-%d", rng.Intn(3)))
	case 5:
		if r.SetTermination(name, v.Now().Add(time.Minute)) != nil {
			return
		}
		v.Advance(2 * time.Minute)
		check("SetTermination " + name + " (expired, unswept)")
		op = "SweepExpired"
		r.SweepExpired()
	case 6:
		op = "Remove " + name
		if doc, ok := r.LookupDocument(name); ok && r.Remove(name) {
			m.removed[name] = doc
		}
	case 7, 8:
		doc := m.removed[name]
		if doc == nil {
			return
		}
		delete(m.removed, name)
		lut := v.Now().Add(-time.Duration(rng.Intn(60)) * time.Second)
		if rng.Intn(2) == 0 {
			op = "Restore " + name
			r.Home().Restore(name, doc, lut, time.Time{})
		} else {
			op = "Adopt " + name
			r.Home().Adopt(name, doc, lut, time.Time{})
		}
	}
	v.Advance(time.Duration(rng.Intn(1000)) * time.Millisecond)
	check(op)
}
