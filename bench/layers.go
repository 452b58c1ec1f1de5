package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"glare/internal/activity"
	"glare/internal/adr"
	"glare/internal/atr"
	"glare/internal/cache"
	"glare/internal/epr"
	"glare/internal/hlc"
	"glare/internal/lease"
	"glare/internal/mds"
	"glare/internal/replicate"
	"glare/internal/simclock"
	"glare/internal/store"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/vo"
	synthetic "glare/internal/workload"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

// perLayer names every per-layer metric; a layer is a package of the
// program. Three kinds: direct probes of a layer's public functions
// (layerProbes; the same in every workload's record), counts the program
// already exports divided by timed ops, and self times from the traced
// pass (layerCounts; per workload, 0 where the workload never enters the
// layer). README.md says which end-to-end metric each should move.
var perLayer = []metric{
	{"xmlutil.encode_us", "us", "lower"},
	{"xmlutil.encode_allocs", "count", "lower"},
	{"xmlutil.parse_us", "us", "lower"},
	{"xmlutil.parse_allocs", "count", "lower"},
	{"transport.echo_us", "us", "lower"},
	{"transport.echo_allocs", "count", "lower"},
	{"transport.client_self_us", "us", "lower"},
	{"transport.server_self_us", "us", "lower"},
	{"transport.calls_op", "count", "lower"},
	{"transport.wire_bytes_op", "B", "lower"},
	{"transport.retries_op", "count", "lower"},
	{"transport.sheds", "count", "lower"},
	{"transport.admit_ns", "ns", "lower"},
	{"hlc.now_ns", "ns", "lower"},
	{"hlc.observe_ns", "ns", "lower"},
	{"telemetry.span_ns", "ns", "lower"},
	{"telemetry.counter_lookup_ns", "ns", "lower"},
	{"atr.lookup_ns", "ns", "lower"},
	{"atr.register_us", "us", "lower"},
	{"atr.remove_us", "us", "lower"},
	{"atr.concrete_of_us", "us", "lower"},
	{"atr.query_name_us", "us", "lower"},
	{"atr.query_base_us", "us", "lower"},
	{"atr.query_constraint_us", "us", "lower"},
	{"xpath.compile_us", "us", "lower"},
	{"xpath.select_us", "us", "lower"},
	{"xpath.select_allocs", "count", "lower"},
	{"adr.register_us", "us", "lower"},
	{"adr.remove_us", "us", "lower"},
	{"adr.update_metrics_us", "us", "lower"},
	{"adr.bytype_us", "us", "lower"},
	{"adr.bytype_allocs", "count", "lower"},
	{"cache.get_ns", "ns", "lower"},
	{"cache.put_ns", "ns", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"wsrf.publish_ns", "ns", "lower"},
	{"lease.cycle_us", "us", "lower"},
	{"store.append_us", "us", "lower"},
	{"store.append_allocs", "count", "lower"},
	{"store.wal_bytes_rec", "B", "lower"},
	{"store.snapshot_ms", "ms", "lower"},
	{"store.replay_ms", "ms", "lower"},
	{"store.appends_op", "count", "lower"},
	{"store.fsyncs_op", "count", "lower"},
	{"store.snapshots_op", "count", "lower"},
	{"replicate.mutation_codec_us", "us", "lower"},
	{"replicate.holder_put_us", "us", "lower"},
	{"replicate.k1_us", "us", "lower"},
	{"replicate.k2_us", "us", "lower"},
	{"replicate.k3_us", "us", "lower"},
	{"replicate.k3_over_k2", "ratio", "lower"},
	{"replicate.msgs_write", "count", "lower"},
	{"replicate.applies_write", "count", "lower"},
	{"rdm.resolve_hit_us", "us", "lower"},
	{"rdm.resolve_miss_us", "us", "lower"},
	{"rdm.calls_miss", "count", "lower"},
	{"superpeer.elect_ms", "ms", "lower"},
	{"mds.query_us_100", "us", "lower"},
	{"mds.query_us_300", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// layerCounts derives one workload's per-layer metrics from its traced
// pass: the program's own counters over the timed window divided by timed
// ops, span self times, and the labelled latencies of resolve_grid. plain
// is the untraced pass of the same run, the base of the tracing overhead:
// both passes start from the same state and run the same ops in the same
// order, so the traced pass is compared with as many ops of the plain one.
func layerCounts(traced, plain passResult) map[string]value {
	ops := float64(traced.m.ops)
	perOp := func(counter string) float64 { return traced.counts[counter] / ops }
	calls := traced.counts["glare_rpc_client_requests_total"]
	out := map[string]value{
		"transport.client_self_us": {traced.selfUS["op"], "us"},
		// What a round trip costs beyond its handler: HTTP, the server's
		// envelope parse and encode, admission, the client's parse. A mean:
		// the handler's time is the program's own histogram's sum.
		"transport.server_self_us": {ratio(traced.tripsUS-traced.counts["glare_rpc_server_latency_sum_us"], traced.trips), "us"},
		"transport.calls_op":       {calls / ops, "count"},
		"transport.wire_bytes_op":  {traced.wireBytes / ops, "B"},
		"transport.retries_op":     {perOp("glare_transport_retries_total"), "count"},
		"transport.sheds":          {traced.counts["glare_server_sheds_total"], "count"},
		"store.appends_op":         {perOp("glare_store_appends_total"), "count"},
		"store.fsyncs_op":          {perOp("glare_store_fsyncs_total"), "count"},
		"store.snapshots_op":       {perOp("glare_store_snapshots_total"), "count"},
		"store.replay_ms":          {traced.inst.restartMS, "ms"},
		"replicate.msgs_write":     {perOp("glare_replica_writes_total"), "count"},
		"replicate.applies_write":  {perOp("glare_replica_apply_total"), "count"},
		"superpeer.elect_ms":       {traced.electMS, "ms"},
		"trace.overhead_ratio":     {traced.m.rate(traced.m.ops) / plain.m.rate(traced.m.ops), "ratio"},
	}
	hits, misses := traced.counts["glare_rdm_cache_hits_total"], traced.counts["glare_rdm_cache_misses_total"]
	out["cache.hit_ratio"] = value{ratio(hits, hits+misses), "ratio"}

	// resolve_grid labels each op as a first touch (miss) or a repeat (hit).
	var hit, miss []float64
	for i, ns := range traced.m.latencies {
		if ns == 0 || traced.inst.firstTouch == nil {
			continue
		}
		if traced.inst.firstTouch[traced.m.from+i] {
			miss = append(miss, float64(ns)/1e3)
		} else {
			hit = append(hit, float64(ns)/1e3)
		}
	}
	out["rdm.resolve_hit_us"] = value{percentile(hit, 50), "us"}
	out["rdm.resolve_miss_us"] = value{percentile(miss, 50), "us"}
	out["rdm.calls_miss"] = value{ratio(calls, float64(len(miss))), "count"}
	return out
}

// ratio is a/b, 0 when the workload never did b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// batches is how many equal batches a probe times; it reports the median
// batch, so a garbage collection or a noisy moment in one batch does not
// move the number.
const batches = 5

// timeCalls calls fn(i) for i in [0, batches×n) and returns the median
// batch's time per call in ns and the allocations per call over all
// batches. Iteration counts are fixed, not adaptive, so a probe does the
// same work on every run and the whole probe pass fits the run-time cap.
func timeCalls(n int, fn func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	times := make([]float64, batches)
	runtime.ReadMemStats(&before)
	for b := range times {
		start := time.Now()
		for i := b * n; i < (b+1)*n; i++ {
			fn(i)
		}
		times[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&after)
	return percentile(times, 50), float64(after.Mallocs-before.Mallocs) / float64(batches*n)
}

// probeSet collects probe results and the first error of any probe.
// The per-batch call counts in the probes are for -seconds 10 and up; a
// shorter run scales them down as it does the workloads' op counts.
type probeSet struct {
	out   map[string]value
	scale float64
	err   error
}

// time runs a probe and records it as name in unit (ns, us or ms per
// call); it returns the allocations per call.
func (p *probeSet) time(name, unit string, n int, fn func(i int)) (allocs float64) {
	ns, allocs := timeCalls(max(1, int(float64(n)*p.scale)), fn)
	p.out[name] = value{ns / map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit], unit}
	return allocs
}

// usAllocs records <layer>.<what>_us and <layer>.<what>_allocs.
func (p *probeSet) usAllocs(prefix string, n int, fn func(i int)) {
	p.out[prefix+"_allocs"] = value{p.time(prefix+"_us", "us", n, fn), "count"}
}

func (p *probeSet) check(err error) bool {
	if err != nil && p.err == nil {
		p.err = err
	}
	return p.err == nil
}

// layerProbes times each layer's public functions directly, on inputs
// drawn from the same seeded generator as the workloads. It builds its
// own registries, stores and grids and tears them down again.
func layerProbes(cfg config) (map[string]value, error) {
	dir, err := os.MkdirTemp(cfg.out, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &probeSet{out: map[string]value{}, scale: min(1, cfg.seconds/10)}
	types := genHierarchy(rand.New(rand.NewSource(cfg.seed)), catalogTypes)
	doc := medianDoc(types)
	probeXML(p, doc)
	probeRequestTax(p)
	probeATR(p, types)
	probeADR(p)
	probeCacheBroker(p)
	probeStore(p, dir, doc)
	probeReplicate(p, dir, doc)
	probeMDS(p)
	probeGrids(p)
	return p.out, p.err
}

// medianDoc is the type document of median encoded size: the typical
// payload of a lookup answer and of a replicated registration.
func medianDoc(types []*activity.Type) *xmlutil.Node {
	docs := make([]*xmlutil.Node, len(types))
	sizes := make([]float64, len(types))
	for i, t := range types {
		docs[i] = t.ToXML()
		sizes[i] = float64(len(docs[i].String()))
	}
	median := percentile(sizes, 50)
	for i, size := range sizes {
		if size == median {
			return docs[i]
		}
	}
	return docs[0]
}

// probeXML encodes and parses the envelope of a GetType answer carrying
// the median type document: what a server writes and a client reads once
// per lookup.
func probeXML(p *probeSet, doc *xmlutil.Node) {
	env := xmlutil.NewNode("Envelope")
	env.Elem("Operation", "GetType")
	env.Elem("HLC").SetAttr("t", "2005-11-12T00:00:00.000000001Z").SetAttr("site", "site-01")
	env.Elem("Body").Add(doc)
	text := env.String()
	p.usAllocs("xmlutil.encode", 2000, func(int) { _ = env.String() })
	p.usAllocs("xmlutil.parse", 2000, func(int) {
		_, err := xmlutil.Parse(strings.NewReader(text))
		p.check(err)
	})
}

// probeRequestTax times what every request pays whatever it asks for:
// admission, two HLC operations, a span and a labelled counter lookup.
func probeRequestTax(p *probeSet) {
	adm := transport.NewAdmission(transport.DefaultAdmissionConfig(), telemetry.New("probe"))
	p.time("transport.admit_ns", "ns", 50000, func(int) {
		release, err := adm.Admit(atr.ServiceName, "GetType", time.Time{})
		if p.check(err) {
			release()
		}
	})
	clock := hlc.New("probe", simclock.Real)
	remote := time.Now()
	p.time("hlc.now_ns", "ns", 50000, func(int) { clock.Now() })
	p.time("hlc.observe_ns", "ns", 50000, func(i int) {
		clock.Observe("peer", remote.Add(time.Duration(i)))
	})
	tel := telemetry.New("probe")
	p.time("telemetry.span_ns", "ns", 20000, func(int) { tel.StartSpan("probe", nil).End(nil) })
	p.time("telemetry.counter_lookup_ns", "ns", 50000, func(int) {
		tel.Counter("glare_probe_total", telemetry.L("service", atr.ServiceName), telemetry.L("op", "GetType")).Inc()
	})
}

// probeATR calls a 1000-type registry directly, and runs the three query
// shapes of query_xpath against it.
func probeATR(p *probeSet, types []*activity.Type) {
	reg := atr.New("", nil, nil)
	for _, t := range types {
		if _, err := reg.Register(t); !p.check(err) {
			return
		}
	}
	p.time("atr.lookup_ns", "ns", 20000, func(i int) {
		if _, ok := reg.Lookup(types[i%len(types)].Name); !ok {
			p.check(fmt.Errorf("atr probe: %s not found", types[i%len(types)].Name))
		}
	})
	fresh := genFlat(rand.New(rand.NewSource(1)), "Probe", batches*200)
	p.time("atr.register_us", "us", 200, func(i int) {
		_, err := reg.Register(fresh[i])
		p.check(err)
	})
	p.time("atr.remove_us", "us", 200, func(i int) {
		if !reg.Remove(fresh[i].Name) {
			p.check(fmt.Errorf("atr probe: remove %s: not found", fresh[i].Name))
		}
	})
	p.time("atr.concrete_of_us", "us", 4, func(int) {
		_, err := reg.ConcreteOf(types[0].Name)
		p.check(err)
	})

	queries := genQueries(rand.New(rand.NewSource(1)), types, 3)
	for shape, name := range []string{"atr.query_name_us", "atr.query_base_us", "atr.query_constraint_us"} {
		expr, err := xpath.Compile(queries[shape].Expr)
		if !p.check(err) {
			return
		}
		p.time(name, "us", 4, func(int) {
			if res := reg.Query(expr); len(res.Nodes) != queries[shape].Want {
				p.check(fmt.Errorf("atr probe: %s: %d results, want %d", queries[shape].Expr, len(res.Nodes), queries[shape].Want))
			}
		})
	}
	p.time("xpath.compile_us", "us", 5000, func(int) {
		_, err := xpath.Compile(queries[2].Expr)
		p.check(err)
	})
	// The 1000-entry aggregate document atr.Query builds and scans.
	group := wsrf.NewServiceGroup("probe", nil)
	group.Refresh(reg.Home())
	doc, expr := group.Document(), xpath.MustCompile(queries[0].Expr)
	p.usAllocs("xpath.select", 8, func(int) { expr.Select(doc) })
}

// adrEntries is the size of one resolve_grid holder's ADR.
const adrEntries = 2 * resolvePool / resolveHolders

// probeADR calls a registry the size of one resolve_grid holder's. The
// deployments it registers and removes each belong to a type of their own
// that is already in the ATR, as in churn_local.
func probeADR(p *probeSet) {
	types := atr.New("", nil, nil)
	reg := adr.New("", types, nil, nil)
	for i := 0; i < adrEntries; i++ {
		if _, err := reg.Register(execDeployment(depName(i, 0), fmt.Sprintf("Resolve%07d", i/2), "site-01")); !p.check(err) {
			return
		}
	}
	fresh := make([]*activity.Deployment, batches*200)
	for i := range fresh {
		t := &activity.Type{Name: fmt.Sprintf("Probe%07d", i)}
		if _, err := types.Register(t); !p.check(err) {
			return
		}
		fresh[i] = execDeployment("dep-"+t.Name, t.Name, "site-01")
	}
	p.time("adr.register_us", "us", 200, func(i int) {
		_, err := reg.Register(fresh[i])
		p.check(err)
	})
	p.time("adr.update_metrics_us", "us", 200, func(i int) {
		p.check(reg.UpdateMetrics(fresh[i].Name, activity.Metrics{LastExecutionTime: time.Second, Invocations: 1}))
	})
	p.time("adr.remove_us", "us", 200, func(i int) {
		if !reg.Remove(fresh[i].Name) {
			p.check(fmt.Errorf("adr probe: remove %s: not found", fresh[i].Name))
		}
	})
	p.usAllocs("adr.bytype", 8, func(i int) {
		if deps := reg.ByType(fmt.Sprintf("Resolve%07d", i)); len(deps) != 2 {
			p.check(fmt.Errorf("adr probe: ByType found %d deployments, want 2", len(deps)))
		}
	})
}

// probeCacheBroker times the two-level cache's map operations and a
// notification to ten subscribers.
func probeCacheBroker(p *probeSet) {
	c := cache.New(simclock.Real, time.Hour)
	doc := xmlutil.NewNode("ActivityDeploymentEntry").SetAttr("name", "probe")
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("deployments:Resolve%07d", i)
	}
	src := epr.New("http://127.0.0.1:1/wsrf/services/ADR", "DeploymentKey", "probe")
	p.time("cache.put_ns", "ns", 50000, func(i int) { c.Put(keys[i%len(keys)], src, doc) })
	p.time("cache.get_ns", "ns", 50000, func(i int) {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			p.check(fmt.Errorf("cache probe: %s missing", keys[i%len(keys)]))
		}
	})
	broker := wsrf.NewBroker(nil)
	for i := 0; i < 10; i++ {
		_, err := broker.Subscribe(wsrf.TopicDeployment, wsrf.SinkFunc(func(wsrf.Notification) {}))
		p.check(err)
	}
	p.time("wsrf.publish_ns", "ns", 50000, func(int) { broker.Publish(wsrf.TopicDeployment, "probe", doc) })
}

// probeStore appends registry-put records to a WAL with the default
// fsync=interval policy, snapshots it at the live size churn_local and
// resolve_grid holders run at, and journals a lease cycle through it.
func probeStore(p *probeSet, dir string, typeDoc *xmlutil.Node) {
	// Snapshots off: the probe times appends and one snapshot separately.
	s, err := store.Open(store.Options{Dir: filepath.Join(dir, "store"), SnapshotEvery: -1})
	if !p.check(err) {
		return
	}
	defer s.Close()
	doc := typeDoc.String()
	const live = 1300
	appendRec := func(i int) {
		p.check(s.Append(store.Record{Op: store.OpPut, Reg: store.RegATR,
			Key: fmt.Sprintf("Probe%07d", i%live), Doc: doc, LUT: time.Unix(int64(i), 0)}))
	}
	for i := 0; i < live; i++ {
		appendRec(i)
	}
	p.out["store.wal_bytes_rec"] = value{float64(s.Status().WALBytes) / live, "B"}
	p.usAllocs("store.append", 1000, appendRec)
	p.time("store.snapshot_ms", "ms", 1, func(int) { p.check(s.Snapshot()) })

	leases := lease.NewService(simclock.Real)
	leases.SetJournal(s.LeaseJournal())
	p.time("lease.cycle_us", "us", 1000, func(int) {
		ticket, err := leases.Acquire("probe-deployment", "bench", lease.Shared, time.Minute)
		if p.check(err) {
			p.check(leases.Release(ticket.ID))
		}
	})
}

// probeReplicate times one replica copy's codec round trip (what every
// extra replica costs in CPU on both ends) and the holder's apply.
func probeReplicate(p *probeSet, dir string, doc *xmlutil.Node) {
	m := replicate.Mutation{Origin: "site-01", Epoch: 1, Seq: 1, Reg: store.RegATR,
		Key: "Probe", Doc: doc, LUT: time.Unix(1, 0)}
	p.time("replicate.mutation_codec_us", "us", 2000, func(int) {
		n, err := xmlutil.Parse(strings.NewReader(m.ToXML().String()))
		if p.check(err) {
			_, err = replicate.MutationFromXML(n)
			p.check(err)
		}
	})
	s, err := store.Open(store.Options{Dir: filepath.Join(dir, "holder")})
	if !p.check(err) {
		return
	}
	defer s.Close()
	holder := replicate.NewHolder(func(origin, reg string) replicate.Journal {
		return s.RegistryJournal("replica:" + origin + ":" + reg)
	})
	p.time("replicate.holder_put_us", "us", 400, func(i int) {
		holder.Put(m.Origin, m.Reg, fmt.Sprintf("Probe%07d", i), m.Doc, time.Unix(int64(i), 0), time.Time{})
	})
}

// probeMDS is the paper's baseline, which must stay an un-indexed scan:
// a name-equality XPath query against a Default Index of 100 and of 300
// synthetic resources. The ratio of the two stays near 3.
func probeMDS(p *probeSet) {
	for _, n := range []int{100, 300} {
		index := mds.New("probe-index", mds.DefaultIndex, nil)
		resources := synthetic.SyntheticTypes(n)
		for _, t := range resources {
			index.Register(epr.New("http://127.0.0.1:1/wsrf/services/ATR", atr.KeyName, t.Name), t.ToXML())
		}
		exprs := make([]*xpath.Expr, n)
		for i, t := range resources {
			exprs[i] = xpath.MustCompile(fmt.Sprintf("//ActivityTypeEntry[@name='%s']", t.Name))
		}
		p.time(fmt.Sprintf("mds.query_us_%d", n), "us", 200, func(i int) {
			res, err := index.Query(exprs[i%n])
			if p.check(err) && len(res.Nodes) != 1 {
				p.check(fmt.Errorf("mds probe: %d results, want 1", len(res.Nodes)))
			}
		})
	}
}

// probeGrids measures what needs a production grid: the empty-call floor
// of the wire (envelope, HTTP, admission, HLC, telemetry) through a site's
// own client, and one client's RegisterType at replication factor 0, 2, 3.
func probeGrids(p *probeSet) {
	v, err := vo.Build(vo.Options{Sites: 2})
	if !p.check(err) {
		return
	}
	v.Nodes[1].Server.Register("BenchEcho", "Echo", func(*xmlutil.Node) (*xmlutil.Node, error) { return nil, nil })
	url := v.Nodes[1].Info.ServiceURL("BenchEcho")
	p.usAllocs("transport.echo", 600, func(int) {
		_, err := v.Nodes[0].Client.Call(url, "Echo", nil)
		p.check(err)
	})
	v.Close()

	for _, k := range []int{0, 2, 3} {
		v, err := vo.Build(vo.Options{Sites: 3, GroupSize: 3, ReplicaK: k})
		if !p.check(err) {
			return
		}
		if !p.check(v.ElectSuperPeers()) {
			v.Close()
			return
		}
		fresh := genFlat(rand.New(rand.NewSource(int64(k))), "Probe", batches*300)
		p.time(fmt.Sprintf("replicate.k%d_us", max(k, 1)), "us", 300, func(i int) {
			_, err := v.Nodes[1].RDM.RegisterType(fresh[i])
			p.check(err)
		})
		v.Close()
	}
	p.out["replicate.k3_over_k2"] = value{ratio(p.out["replicate.k3_us"].Value, p.out["replicate.k2_us"].Value), "ratio"}
}
