package glare

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/atr"
	"glare/internal/replicate"
	"glare/internal/store"
	"glare/internal/workload"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

// rpcRequests sums glare_rpc_client_requests_total by op over every site.
func rpcRequests(g *Grid) map[string]uint64 {
	out := map[string]uint64{}
	for i := 0; i < g.Sites(); i++ {
		for _, sm := range g.Telemetry(i).Registry().Snapshot() {
			if sm.Name != "glare_rpc_client_requests_total" {
				continue
			}
			for _, l := range sm.Labels {
				if l.Key == "op" {
					out[l.Value] += uint64(sm.Value)
				}
			}
		}
	}
	return out
}

// TestCost records what the grid costs on the wire. The idle case is one
// minute of the shipped monitor schedule on an 8-site grid (two peer
// groups, K = 3, durable stores) holding N registered types, each with one
// executable deployment on the site that registered it, and serving no
// requests.
//
// No call count grows with N: the ops are the liveness, view, rollup,
// replica and digest traffic of a fixed-size grid, anti-entropy copies no
// documents, and the Deployment Status Monitor writes nothing for a
// deployment that is still there, so nothing is replicated. Only
// ReplicaFetch bytes still grow with N, since each read repair pulls the
// origin's whole replicated registry. idle_cached adds one site's warm
// deployment cache: its refresher probes each entry once a pass and, with
// no LUT moving, fetches nothing.
//
// The resolve_miss cases are one cold resolution each: every rung of the
// ladder is one round of Resolve calls, so the counts are the rounds'
// widths. deploy_miss is one cold on-demand deploy, whose type lookups
// climb the same ladder.
func TestCost(t *testing.T) {
	// Each of the two super-peers' rollup passes, 12 a minute, asks each
	// of its 3 members once for all 4 rollup metrics: 72 HistoryXport.
	// Each liveness pass, 30 a minute, is the one failure detector: the 6
	// members each Ping their super-peer (180 Ping), and the 2 super-peers
	// each probe their 3 members and the other super-peer with ViewStatus
	// (240 ViewStatus), which also drives replica failover, so no pass
	// pings members. Any other op, Replicate, Get and GetLUT included, is
	// an error.
	schedule := map[string]uint64{"HistoryXport": 72, "Ping": 180, "ViewStatus": 240,
		"ReplicaFetch": 192, "RegistryDigest": 96}
	ops := []string{"HistoryXport", "Ping", "ViewStatus", "ReplicaFetch", "RegistryDigest"}
	checkCalls := func(t *testing.T, n int, calls, want map[string]uint64) {
		t.Helper()
		if !maps.Equal(calls, want) {
			t.Errorf("N=%d: calls by op during the idle minute = %v, want %v and nothing else", n, calls, want)
		}
	}
	t.Run("idle", func(t *testing.T) {
		sizes := []int{100, 400, 1600}
		if testing.Short() || raceDetector {
			sizes = sizes[:2]
		}
		passNames := []string{"refresh", "index", "status", "liveness", "sync", "sample", "rollup", "repair"}
		var table, work strings.Builder
		fmt.Fprintf(&table, "| N | per idle minute | %s | wall |\n|---|---|%s---|\n", strings.Join(ops, " | "), strings.Repeat("---|", len(ops)))
		fmt.Fprintf(&work, "| N | WAL appends | mallocs | %s |\n|---|---|---|%s\n", strings.Join(passNames, " | "), strings.Repeat("---|", len(passNames)))
		var base idleCost
		for _, n := range sizes {
			g, wire := idleGrid(t, n)
			c := idleMinute(t, g, wire)
			for _, row := range []struct {
				what string
				per  map[string]uint64
			}{{"calls", c.calls}, {"bytes", c.volume}} {
				fmt.Fprintf(&table, "| %d | %s |", n, row.what)
				for _, op := range ops {
					fmt.Fprintf(&table, " %d |", row.per[op])
				}
				fmt.Fprintf(&table, " %v |\n", c.wall.Round(time.Millisecond))
			}
			fmt.Fprintf(&work, "| %d | %d | %d |", n, c.appends, c.mallocs)
			for _, pass := range passNames {
				fmt.Fprintf(&work, " %v |", c.passes[pass].Round(100*time.Microsecond))
			}
			work.WriteString("\n")
			checkCalls(t, n, c.calls, schedule)
			// ReplicaFetch bytes grow with N until read repair stops
			// pulling whole registries (ROADMAP item 24(b)); every other op
			// moves the same bytes at any N. The WAL takes exactly the same
			// appends at any N (none varied across runs): none of them is
			// per deployment.
			if base.volume == nil {
				base = c
			}
			for _, op := range ops {
				if b, b0 := float64(c.volume[op]), float64(base.volume[op]); op != "ReplicaFetch" && (b > 1.02*b0 || b < 0.98*b0) {
					t.Errorf("N=%d: %s moved %.0f bytes, want within 2%% of the %.0f at N=%d", n, op, b, b0, sizes[0])
				}
			}
			if c.appends != base.appends {
				t.Errorf("N=%d: %d WAL appends, want the %d at N=%d", n, c.appends, base.appends, sizes[0])
			}
			if c.wall > 3*time.Second && !raceDetector {
				t.Errorf("N=%d: the idle minute took %v of wall time, want <= 3s", n, c.wall)
			}
		}
		t.Logf("Wire cost of one idle minute (8 sites, K = 3):\n%s", table.String())
		t.Logf("Work of one idle minute, all sites (monitor pass time summed by pass):\n%s", work.String())
	})
	t.Run("idle_cached", func(t *testing.T) {
		// Site 0 resolves every type, so its cache, and its super-peer's
		// for answers from the other group, hold the deployments those
		// resolutions fetched. Each entry is stamped with its cacher's
		// physical clock, which may run behind the source's HLC stamp, so
		// the warm-up minute revives each entry at most once; it also
		// drops the entries whose source answers that it holds no such
		// deployment. After that no LUT moves.
		const n = 100
		g, wire := idleGrid(t, n)
		for _, typ := range workload.SyntheticTypes(n) {
			if _, err := g.Client(0).DiscoverNoDeploy(typ.Name); err != nil {
				t.Fatal(err)
			}
		}
		cached := cachedDeployments(g)
		warm := idleMinute(t, g, wire)
		if warm.calls["Get"] > uint64(cached) {
			t.Errorf("warm-up minute: %d Get calls, want at most one per cached deployment (%d)", warm.calls["Get"], cached)
		}
		kept := cachedDeployments(g)
		c := idleMinute(t, g, wire)
		// Twelve refresher passes a minute, one GetLUT per entry each.
		want := maps.Clone(schedule)
		want["GetLUT"] = 12 * uint64(kept)
		checkCalls(t, n, c.calls, want)
		if after := cachedDeployments(g); after != kept {
			t.Errorf("%d cached deployments after the idle minute, want the %d it began with", after, kept)
		}
		t.Logf("cached deployments: %d after the resolutions, %d after the warm-up minute (%d GetLUT, %d Get), then %d GetLUT and %d Get a minute",
			cached, kept, warm.calls["GetLUT"], warm.calls["Get"], c.calls["GetLUT"], c.calls["Get"])
	})
	t.Run("resolve_miss", func(t *testing.T) {
		// One cold DiscoverNoDeploy per scenario; every RPC it causes, on
		// any site, is counted by op.
		rows := []struct {
			name, typ string
			grid      func(t *testing.T) (g *Grid, caller int)
			calls     uint64
			deps      []string
		}{
			// resolve_grid's shape: one round to the three peers.
			{"concrete name, 4 sites in one group, 2 of 3 peers hold it", "Render", concreteMiss, 3,
				[]string{"render-a", "render-b"}},
			// Site 2 holds a deployment of Render under its placeholder
			// type, without the link to Imaging, so it and the empty site
			// are asked again about Render: 3 + 2.
			{"abstract name, one holder without the base chain", "Imaging", abstractMiss, 5,
				[]string{"render-a", "render-b"}},
			// The caller's peer (its super-peer), then the super-peer for
			// the VO: it asks its other member and the other super-peer,
			// which asks its member, the holder.
			{"group-wide miss, 4 sites in 2 groups", "Render", groupMiss, 5,
				[]string{"render-a"}},
		}
		var table strings.Builder
		table.WriteString("| cold miss | Resolve | other ops | deployments |\n|---|---|---|---|\n")
		for _, row := range rows {
			g, caller := row.grid(t)
			before := rpcRequests(g)
			deps, err := g.Client(caller).DiscoverNoDeploy(row.typ)
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			var other []string
			var calls uint64
			for op, v := range rpcRequests(g) {
				switch d := v - before[op]; {
				case op == "Resolve":
					calls = d
				case d > 0:
					other = append(other, fmt.Sprintf("%s %d", op, d))
				}
			}
			sort.Strings(other)
			var got []string
			for _, d := range deps {
				got = append(got, d.Name)
			}
			fmt.Fprintf(&table, "| %s | %d | %s | %s |\n", row.name, calls, strings.Join(other, ", "), strings.Join(got, " "))
			if calls != row.calls || len(other) > 0 {
				t.Errorf("%s: Resolve = %d and other ops %v, want Resolve = %d and nothing else", row.name, calls, other, row.calls)
			}
			if strings.Join(got, " ") != strings.Join(row.deps, " ") {
				t.Errorf("%s: deployments %v, want %v", row.name, got, row.deps)
			}
		}
		t.Logf("RPCs per cold resolve:\n%s", table.String())
	})
	t.Run("deploy_miss", func(t *testing.T) {
		// One cold Deploy("JPOVray") from a member of the group that owns
		// only JPOVray; Java and Ant live in the other group. Each
		// dependency is looked up by one climb, as wide as resolve_miss's
		// group-wide miss: 5 Resolve calls each. No lookup asks GetType.
		// The build adds its one pull-through ArtifactFetch to the blob's
		// rendezvous home.
		g, caller, owner := twoGroups(t)
		if err := g.Client(owner).RegisterTypes(imagingTypes("Java", "Ant")...); err != nil {
			t.Fatal(err)
		}
		if err := g.Client(caller).RegisterTypes(imagingTypes("JPOVray")...); err != nil {
			t.Fatal(err)
		}
		before := rpcRequests(g)
		if _, err := g.Client(caller).Deploy("JPOVray", MethodExpect); err != nil {
			t.Fatal(err)
		}
		got := delta(rpcRequests(g), before)
		t.Logf("RPCs of a cold cross-group deploy: %v", got)
		if want := map[string]uint64{"Resolve": 10, "ArtifactFetch": 1}; !maps.Equal(got, want) {
			t.Errorf("RPCs by op = %v, want %v and nothing else (no GetType)", got, want)
		}
	})
	t.Run("allocs", func(t *testing.T) {
		if raceDetector {
			t.Skip("under -race sync.Pool drops a quarter of what is put back, so the counts would include refilling the parser pool")
		}
		reg := selectFixture(t)
		snapStore := putStore(t, 1000)
		// The two envelopes of one lookup_wire op: the GetType request
		// and its answer carrying the benchmark's median type document.
		// Both also seed xmlutil's FuzzParse.
		rows := []struct {
			name   string
			budget float64
			op     func()
		}{
			{"xmlutil.Parse of the GetType answer", 40, parseOf(t, `<Envelope><Operation>GetType</Operation><HLC t="2005-11-12T00:00:00.000000001Z" site="site-01"/><Body><ActivityTypeEntry name="Type00054" type="Domain16"><BaseType>Abstract0013</BaseType><Function name="run"><Input>in</Input><Output>out</Output></Function><Installation mode="on-demand"><Constraints><platform>PowerPC</platform><os>AIX</os><arch>64bit</arch></Constraints><DeployFile url="http://dps.uibk.ac.at/~glare/deployfiles/type00054.build"/></Installation></ActivityTypeEntry></Body></Envelope>`)},
			{"xmlutil.Parse of the GetType request", 15, parseOf(t, `<Envelope><Operation>GetType</Operation><HLC t="2005-11-12T00:00:00.000000001Z" site="site-00"/><Body><Name>Type00054</Name></Body><Deadline budget_ms="29999.871"/></Envelope>`)},
			// One registry update on a durable site without replication:
			// the ADR put and the ATR reference put both reach the WAL,
			// which encodes the live documents in place.
			{"ADR.UpdateMetrics journaled to the WAL", 36, metricsUpdate(t)},
			// A registry put is encoded once, into the frame the store
			// keeps; a compaction copies the kept frames.
			{"Store.Append of one registry put", 1, storeAppend(t, snapStore)},
			// What a replica does per Replicate of register_quorum,
			// counting the new key's Sprintf.
			{"Holder.Put of one replicated type, journaled to a store", 6, holderPut(t)},
			{"Store.Snapshot of 1 000 registry puts", 22, func() {
				if err := snapStore.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}},
			// The three query_xpath shapes: a predicate tests every entry
			// without building a slice per candidate.
			{"ATR Home.Select of //ActivityTypeEntry[BaseType='Base03']", 39, selectOf(t, reg, `//ActivityTypeEntry[BaseType='Base03']`, 4)},
			{"ATR Home.Select of //ActivityTypeEntry[@name='Type17']", 30, selectOf(t, reg, `//ActivityTypeEntry[@name='Type17']`, 1)},
			{"ATR Home.Select of //ActivityTypeEntry[@type='Domain1']/Installation/Constraints[os='Linux']", 71,
				selectOf(t, reg, `//ActivityTypeEntry[@type='Domain1']/Installation/Constraints[os='Linux']`, 4)},
		}
		var table strings.Builder
		table.WriteString("| operation | allocs | budget |\n|---|---|---|\n")
		for _, row := range rows {
			allocs := testing.AllocsPerRun(200, row.op)
			fmt.Fprintf(&table, "| %s | %.1f | %.0f |\n", row.name, allocs, row.budget)
			if allocs > row.budget {
				t.Errorf("%s: %.1f allocations, budget %.0f", row.name, allocs, row.budget)
			}
		}
		t.Logf("Allocations per operation:\n%s", table.String())
	})
}

// parseOf returns an operation that parses doc.
func parseOf(t *testing.T, doc string) func() {
	return func() {
		if _, err := xmlutil.Parse(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
}

// selectFixture fills an ATR with 10 abstract bases and 40 concrete
// types, four per base. Base07's and Base08's types are Domain1 types,
// installable on Linux and on AIX.
func selectFixture(t *testing.T) *atr.Registry {
	reg := atr.New("", nil, nil)
	for i := 0; i < 50; i++ {
		ty := &activity.Type{Name: fmt.Sprintf("Base%02d", i), Abstract: true}
		if i >= 10 {
			ty = &activity.Type{Name: fmt.Sprintf("Type%02d", i), Base: []string{fmt.Sprintf("Base%02d", i%10)}}
		}
		if os, ok := map[int]string{7: "Linux", 8: "AIX"}[i%10]; ok && i >= 10 {
			ty.Domain = "Domain1"
			ty.Installation = &activity.Installation{Mode: activity.ModeOnDemand, Constraints: activity.Constraints{OS: os}}
		}
		if _, err := reg.Register(ty); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// selectOf returns an operation that runs one ATR query on reg and checks
// that it selects want types.
func selectOf(t *testing.T, reg *atr.Registry, query string, want int) func() {
	expr := xpath.MustCompile(query)
	return func() {
		if n := len(reg.Query(expr).Nodes); n != want {
			t.Fatalf("%s selected %d types, want %d", query, n, want)
		}
	}
}

// metricsUpdate registers one type and one deployment on a single durable
// site without replication and returns an operation that updates the
// deployment's metrics.
func metricsUpdate(t *testing.T) func() {
	g := newGrid(t, GridOptions{Sites: 1, DataDir: t.TempDir()})
	svc := g.vo.Nodes[0].RDM
	typ := workload.SyntheticTypes(1)[0]
	if _, err := svc.RegisterType(typ); err != nil {
		t.Fatal(err)
	}
	dep := &activity.Deployment{Name: "dep-" + typ.Name, Type: typ.Name,
		Kind: activity.KindExecutable, Path: "/opt/" + typ.Name + "/bin/run"}
	if _, err := svc.RegisterDeployment(dep); err != nil {
		t.Fatal(err)
	}
	n := 0
	return func() {
		n++
		if err := svc.ADR.UpdateMetrics(dep.Name, activity.Metrics{Invocations: n}); err != nil {
			t.Fatal(err)
		}
	}
}

// putStore opens a store without fsyncs or automatic compaction that
// holds n registry puts of a median-sized type document.
func putStore(t *testing.T, n int) *store.Store {
	s, err := store.Open(store.Options{Dir: t.TempDir(), Fsync: store.FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := 0; i < n; i++ {
		if err := s.Append(storePut(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// storePut is a put of the median ledger type document under a key that
// names i.
func storePut(i int) store.Record {
	name := fmt.Sprintf("Type%05d", i)
	return store.Record{Op: store.OpPut, Reg: store.RegATR, Key: name,
		Doc:  `<ActivityTypeEntry name="` + name + `" type="Domain16"><BaseType>Abstract0013</BaseType><Function name="run"><Input>in</Input><Output>out</Output></Function><Installation mode="on-demand"><Constraints><platform>PowerPC</platform><os>AIX</os><arch>64bit</arch></Constraints><DeployFile url="http://dps.uibk.ac.at/~glare/deployfiles/type00054.build"/></Installation></ActivityTypeEntry>`,
		LUT:  time.Date(2005, 11, 12, 0, 0, 0, int(i), time.UTC),
		Term: time.Date(2006, 11, 12, 0, 0, 0, 0, time.UTC)}
}

// storeAppend returns an operation that appends one more put of an
// existing key to s.
func storeAppend(t *testing.T, s *store.Store) func() {
	rec := storePut(54)
	return func() {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// holderPut returns an operation that applies a put of the median ledger
// type document, under a new key each time, to a replica holder that
// journals to a store without fsyncs or automatic compaction.
func holderPut(t *testing.T) func() {
	s, err := store.Open(store.Options{Dir: t.TempDir(), Fsync: store.FsyncNever, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	h := replicate.NewHolder(func(origin, reg string) replicate.Journal {
		return s.RegistryJournal("replica:" + origin + ":" + reg)
	})
	doc, err := xmlutil.ParseString(storePut(54).Doc)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	return func() {
		i++
		h.Put("site-01", store.RegATR, fmt.Sprintf("Type%07d", i), doc, time.Unix(int64(i), 0), time.Time{})
	}
}

// idleGrid builds the idle-cost grid with n synthetic types, each with one
// executable deployment on the site that registered it, and lets the
// registration fan-out drain. Its clients count wire bytes by op.
func idleGrid(t *testing.T, n int) (*Grid, *wireBytes) {
	t.Helper()
	g := newGrid(t, GridOptions{Sites: 8, Replicas: 3, DataDir: t.TempDir()})
	wire := &wireBytes{byOp: map[string]uint64{}}
	for _, node := range g.vo.Nodes {
		node.Client.WrapTransport(wire.wrap)
	}
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	for i, typ := range workload.SyntheticTypes(n) {
		owner := i % g.Sites()
		if err := g.Client(owner).RegisterTypes(typ); err != nil {
			t.Fatal(err)
		}
		registerDeployment(t, g, owner, "dep-"+typ.Name, typ.Name)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < g.Sites(); i++ {
		for g.Telemetry(i).Gauge("glare_replica_lag_entries").Value() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("site %d: replication lag never drained", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return g, wire
}

// idleCost is what one minute of the monitor schedule cost, over all sites.
type idleCost struct {
	calls, volume map[string]uint64        // RPCs and wire bytes by op
	appends       uint64                   // WAL appends
	mallocs       uint64                   // heap allocations in this process
	passes        map[string]time.Duration // monitor pass time by pass
	wall          time.Duration
}

// idleMinute advances g by one minute of the monitor schedule and returns
// what that minute cost.
func idleMinute(t *testing.T, g *Grid, wire *wireBytes) idleCost {
	t.Helper()
	calls, volume := rpcRequests(g), wire.snapshot()
	appends, passes := workTotals(g)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	start := time.Now()
	if err := g.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&mem)
	appendsAfter, passesAfter := workTotals(g)
	c := idleCost{calls: delta(rpcRequests(g), calls), volume: delta(wire.snapshot(), volume),
		appends: appendsAfter - appends, mallocs: mem.Mallocs - mallocs, passes: map[string]time.Duration{}, wall: wall}
	for pass, d := range passesAfter {
		c.passes[pass] = d - passes[pass]
	}
	return c
}

// workTotals sums glare_store_appends_total and, by pass, the time
// recorded on glare_monitor_pass_seconds over every site.
func workTotals(g *Grid) (appends uint64, passes map[string]time.Duration) {
	passes = map[string]time.Duration{}
	for i := 0; i < g.Sites(); i++ {
		for _, sm := range g.Telemetry(i).Registry().Snapshot() {
			switch sm.Name {
			case "glare_store_appends_total":
				appends += uint64(sm.Value)
			case "glare_monitor_pass_seconds":
				passes[sm.Labels[0].Value] += sm.Histogram.Sum
			}
		}
	}
	return appends, passes
}

// cachedDeployments counts the deployments held in every site's cache.
func cachedDeployments(g *Grid) int {
	n := 0
	for _, node := range g.vo.Nodes {
		n += node.RDM.CachedDeployments()
	}
	return n
}

// delta is after - before for every key that grew.
func delta(after, before map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// wireBytes counts the request and answer body bytes of every envelope
// the clients it wraps exchange, by op.
type wireBytes struct {
	mu   sync.Mutex
	byOp map[string]uint64
}

func (w *wireBytes) wrap(next http.RoundTripper) http.RoundTripper {
	return roundTrip(func(req *http.Request) (*http.Response, error) {
		var body []byte
		if req.Body != nil {
			var err error
			if body, err = io.ReadAll(req.Body); err != nil {
				return nil, err
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
		}
		_, op, _ := strings.Cut(string(body), "<Operation>")
		op, _, _ = strings.Cut(op, "</Operation>")
		resp, err := next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		answer, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(answer))
		w.mu.Lock()
		w.byOp[op] += uint64(len(body) + len(answer))
		w.mu.Unlock()
		return resp, nil
	})
}

func (w *wireBytes) snapshot() map[string]uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return maps.Clone(w.byOp)
}

// roundTrip adapts a function to http.RoundTripper.
type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// concreteMiss is resolve_grid's shape for one type: site 0 asks, and
// Render with one deployment each lives on sites 1 and 2 of a 4-site group.
func concreteMiss(t *testing.T) (*Grid, int) {
	g := newGrid(t, GridOptions{Sites: 4, GroupSize: 4})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	for i, dep := range []string{"render-a", "render-b"} {
		if err := g.Client(1 + i).RegisterType(&Type{Name: "Render"}); err != nil {
			t.Fatal(err)
		}
		registerDeployment(t, g, 1+i, dep, "Render")
	}
	return g, 0
}

// abstractMiss: site 1 holds the abstract Imaging, its concrete subtype
// Render and one deployment; site 2 holds the other deployment under the
// placeholder type that registering it created; site 3 holds nothing.
func abstractMiss(t *testing.T) (*Grid, int) {
	g := newGrid(t, GridOptions{Sites: 4, GroupSize: 4})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	if err := g.Client(1).RegisterTypes(&Type{Name: "Imaging", Abstract: true},
		&Type{Name: "Render", Base: []string{"Imaging"}}); err != nil {
		t.Fatal(err)
	}
	registerDeployment(t, g, 1, "render-a", "Render")
	registerDeployment(t, g, 2, "render-b", "Render")
	return g, 0
}

// groupMiss: two groups of two; a member of one group asks, and the
// member of the other group holds Render and its deployment.
func groupMiss(t *testing.T) (*Grid, int) {
	g, caller, holder := twoGroups(t)
	if err := g.Client(holder).RegisterType(&Type{Name: "Render"}); err != nil {
		t.Fatal(err)
	}
	registerDeployment(t, g, holder, "render-a", "Render")
	return g, caller
}
