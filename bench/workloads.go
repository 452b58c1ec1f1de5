package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"glare/internal/activity"
	"glare/internal/atr"
	"glare/internal/lease"
	"glare/internal/rdm"
	"glare/internal/telemetry"
	"glare/internal/vo"
	"glare/internal/xmlutil"
)

// workload is one named traffic mix. rate sizes it: a pass runs
// rate × seconds timed ops, a fixed count for a given -seconds, so registry
// and WAL state are identical on both sides of any later comparison. The
// rates were measured on the 2-vCPU box the ledger is kept on, where they
// make a pass last about -seconds.
type workload struct {
	name  string
	why   string
	rate  int
	build func(r *rand.Rand, ops int, p *pass) (*instance, error)
}

// pass is what one pass over a workload shares with its builder: the
// tracer (nil when untraced), the wire-byte count the traced round-tripper
// feeds, a scratch directory for durable sites, and how long the builder's
// super-peer election took.
type pass struct {
	tr        *tracer
	wireBytes atomic.Int64
	dir       string
	electMS   float64
}

// instance is a built, warmed-up-able workload: a running grid, the op
// function and the checks to make once the timed window has closed.
type instance struct {
	grid *vo.VO
	// do performs op i on behalf of a client and verifies the answer.
	do func(client, i int) error
	// post runs the after-the-window checks and returns how many things it
	// checked and the failures among them. It may restart sites.
	post func() (checked int, failures []error)
	// firstTouch labels ops the generator made cache misses (resolve_grid).
	firstTouch []bool
	// restartMS is the wall time of post's RestartSite, 0 without one.
	restartMS float64
}

var workloads = []workload{
	{"lookup_wire", "GetType by name over loopback HTTP (paper Fig. 10): transport+xmlutil do ~all the work, the registry ~none; an envelope diet shows here, a query index must not", 7000, buildLookupWire},
	{"query_xpath", "ATR Query over 1000 types in three predicate shapes: xpath/atr.Query do >95% of the work, transport <2%; an inverted index shows here and nowhere else", 150, buildQueryXPath},
	{"register_quorum", "RegisterType at Replicas=3 with WAL on 3 sites: rdm>atr>store>replicate fan-out>transport x2>Holder+WAL; encode-once shows here, a read-side trick that taxes writes too", 1000, buildRegisterQuorum},
	{"churn_local", "in-process type+deployment+lease life-cycle with WAL, no transport, no replication: atr/adr/wsrf/lease/store only, p99 is the WAL snapshot; a wire optimisation predicts no movement", 1700, buildChurnLocal},
	{"resolve_grid", "DiscoverNoDeploy on 4 sites, 5% first-touch misses (peer resolve + 3-way ByType fan-out) and 95% Zipf(1.2) cache hits: p50 is the cache, p99/ops_s the miss path (paper Fig. 12)", 2500, buildResolveGrid},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildGrid starts a grid with production wiring (admission, HLC,
// telemetry, per-site clients with retry and breaker, virtual clock, no
// monitors) and elects super-peers. On a traced pass every site's client
// gets the span-recording round-tripper before it carries traffic.
func buildGrid(opts vo.Options, p *pass) (*vo.VO, error) {
	v, err := vo.Build(opts)
	if err != nil {
		return nil, err
	}
	if p.tr != nil {
		for _, n := range v.Nodes {
			p.tr.wrapClient(n.Client, n.Info.Name, &p.wireBytes)
		}
	}
	start := time.Now()
	if err := v.ElectSuperPeers(); err != nil {
		v.Close()
		return nil, err
	}
	p.electMS = float64(time.Since(start)) / 1e6
	return v, nil
}

// registerTypes registers types with one site's RDM, as a provider would.
func registerTypes(n *vo.Node, types []*activity.Type) error {
	for _, t := range types {
		if _, err := n.RDM.RegisterType(t); err != nil {
			return err
		}
	}
	return nil
}

// catalogTypes is the resident catalogue size of the registry workloads.
const catalogTypes = 1000

// buildCatalog is the container lookup_wire and query_xpath share: two
// sites, the catalogue on site 1, site 0 the caller.
func buildCatalog(r *rand.Rand, p *pass) (*vo.VO, []*activity.Type, error) {
	v, err := buildGrid(vo.Options{Sites: 2}, p)
	if err != nil {
		return nil, nil, err
	}
	types := genHierarchy(r, catalogTypes)
	if err := registerTypes(v.Nodes[1], types); err != nil {
		v.Close()
		return nil, nil, err
	}
	return v, types, nil
}

func buildLookupWire(r *rand.Rand, ops int, p *pass) (*instance, error) {
	v, types, err := buildCatalog(r, p)
	if err != nil {
		return nil, err
	}
	names := make([]string, ops)
	for i := range names {
		names[i] = types[r.Intn(len(types))].Name
	}
	caller, url := v.Nodes[0], v.Nodes[1].Info.ServiceURL(atr.ServiceName)
	return &instance{grid: v, do: func(_, i int) error {
		ctx, end := p.tr.beginOp(caller.Info.Name, i)
		doc, err := caller.Client.CallCtx(ctx, nil, url, "GetType", xmlutil.NewNode("Name", names[i]))
		end()
		if err != nil {
			return err
		}
		if doc == nil || doc.Name != "ActivityTypeEntry" || doc.AttrOr("name", "") != names[i] {
			return fmt.Errorf("GetType %s: wrong document", names[i])
		}
		return nil
	}}, nil
}

func buildQueryXPath(r *rand.Rand, ops int, p *pass) (*instance, error) {
	v, types, err := buildCatalog(r, p)
	if err != nil {
		return nil, err
	}
	queries := genQueries(r, types, ops)
	caller, url := v.Nodes[0], v.Nodes[1].Info.ServiceURL(atr.ServiceName)
	return &instance{grid: v, do: func(_, i int) error {
		q := queries[i]
		ctx, end := p.tr.beginOp(caller.Info.Name, i)
		res, err := caller.Client.CallCtx(ctx, nil, url, "Query", xmlutil.NewNode("XPath", q.Expr))
		end()
		if err != nil {
			return err
		}
		if res == nil || len(res.Children) != q.Want {
			return fmt.Errorf("Query %s: want %d results", q.Expr, q.Want)
		}
		return nil
	}}, nil
}

// sampled is how many acknowledged registrations register_quorum checks
// after the window.
const sampled = 200

func buildRegisterQuorum(r *rand.Rand, ops int, p *pass) (*instance, error) {
	v, err := buildGrid(vo.Options{Sites: 3, GroupSize: 3, ReplicaK: 3, DataDir: p.dir}, p)
	if err != nil {
		return nil, err
	}
	types := genFlat(r, "Quorum", ops)
	sample := r.Perm(ops)
	acked := make([]bool, ops) // op i is written by its own client only, and read after the window
	inst := &instance{grid: v}
	// Client c is the provider on site 1+c, so op i lands on site 1+i%2.
	inst.do = func(c, i int) error {
		n := v.Nodes[1+c]
		_, end := p.tr.beginOp(n.Info.Name, i)
		_, err := n.RDM.RegisterType(types[i])
		end()
		acked[i] = err == nil
		return err
	}
	inst.post = func() (int, []error) {
		var failures []error
		checked := 0
		check := func(stage string, lookup func(owner int, name string) bool) {
			left := sampled
			for _, i := range sample {
				if !acked[i] {
					continue
				}
				if left--; left < 0 {
					break
				}
				checked++
				if !lookup(1+i%clients, types[i].Name) {
					failures = append(failures, fmt.Errorf("%s: %s not found", stage, types[i].Name))
				}
			}
		}
		// Acked names resolve from site 0 (over the wire, from the owner).
		check("resolve from site 0", func(_ int, name string) bool {
			_, ok := v.Nodes[0].RDM.LookupType(name)
			return ok
		})
		// …and survive the owner's restart from its WAL alone: asked of the
		// owner's own registry, not of a cache or a replica.
		v.StopSite(1)
		start := time.Now()
		if err := v.RestartSite(1); err != nil {
			return checked + 1, append(failures, err)
		}
		inst.restartMS = float64(time.Since(start)) / 1e6
		check("after restart", func(owner int, name string) bool {
			_, ok := v.Nodes[owner].RDM.ATR.Lookup(name)
			return ok
		})
		return checked, failures
	}
	return inst, nil
}

func buildChurnLocal(r *rand.Rand, ops int, p *pass) (*instance, error) {
	v, err := buildGrid(vo.Options{Sites: 2, DataDir: p.dir}, p)
	if err != nil {
		return nil, err
	}
	// Site 0 only holds the community index (it cannot be restarted);
	// everything runs on site 1.
	if err := registerTypes(v.Nodes[1], genHierarchy(r, catalogTypes)); err != nil {
		v.Close()
		return nil, err
	}
	types := genFlat(r, "Churn", ops)
	baseTypes, baseDeps := v.Nodes[1].RDM.ATR.Len(), v.Nodes[1].RDM.ADR.Len()
	inst := &instance{grid: v}
	inst.do = func(_, i int) error {
		svc := v.Nodes[1].RDM
		t := types[i]
		d := execDeployment("dep-"+t.Name, t.Name, "")
		_, end := p.tr.beginOp(v.Nodes[1].Info.Name, i)
		defer end()
		if _, err := svc.RegisterType(t); err != nil {
			return err
		}
		if _, err := svc.RegisterDeployment(d); err != nil {
			return err
		}
		ticket, err := svc.Leases.Acquire(d.Name, "bench", lease.Shared, time.Minute)
		if err != nil {
			return err
		}
		if err := svc.ADR.UpdateMetrics(d.Name, activity.Metrics{LastExecutionTime: time.Second, Invocations: 1}); err != nil {
			return err
		}
		if err := svc.Leases.Release(ticket.ID); err != nil {
			return err
		}
		if !svc.ADR.Remove(d.Name) {
			return fmt.Errorf("ADR.Remove %s: not found", d.Name)
		}
		if !svc.ATR.Remove(t.Name) {
			return fmt.Errorf("ATR.Remove %s: not found", t.Name)
		}
		return nil
	}
	inst.post = func() (int, []error) {
		var failures []error
		counts := func(stage string) {
			svc := v.Nodes[1].RDM
			if svc.ATR.Len() != baseTypes || svc.ADR.Len() != baseDeps {
				failures = append(failures, fmt.Errorf("%s: %d types, %d deployments; want %d, %d",
					stage, svc.ATR.Len(), svc.ADR.Len(), baseTypes, baseDeps))
			}
		}
		counts("after churn")
		v.StopSite(1)
		start := time.Now()
		if err := v.RestartSite(1); err != nil {
			return 2, append(failures, err)
		}
		inst.restartMS = float64(time.Since(start)) / 1e6
		counts("after restart")
		return 2, failures
	}
	return inst, nil
}

const (
	resolvePool    = 2000 // concrete types
	resolveHolders = 3    // sites 1..3
)

func buildResolveGrid(r *rand.Rand, ops int, p *pass) (*instance, error) {
	v, err := buildGrid(vo.Options{Sites: 1 + resolveHolders, GroupSize: 1 + resolveHolders}, p)
	if err != nil {
		return nil, err
	}
	// Type i and its two executable deployments live on two of the three
	// holder sites, so each holder ends up with ~2/3 of the pool.
	types := genFlat(r, "Resolve", resolvePool)
	for i, t := range types {
		for k := 0; k < 2; k++ {
			n := v.Nodes[1+(i+k)%resolveHolders]
			if _, err := n.RDM.RegisterType(t); err == nil {
				_, err = n.RDM.RegisterDeployment(execDeployment(depName(i, k), t.Name, n.Info.Name))
			}
			if err != nil {
				v.Close()
				return nil, err
			}
		}
	}
	plan, err := genResolves(r, resolvePool, ops, clients)
	if err != nil {
		v.Close()
		return nil, err
	}
	inst := &instance{grid: v, firstTouch: make([]bool, ops)}
	for i, op := range plan {
		inst.firstTouch[i] = op.First
	}
	caller := v.Nodes[0]
	inst.do = func(_, i int) error {
		ty := plan[i].Type
		ctx, end := p.tr.beginOp(caller.Info.Name, i)
		deps, err := caller.RDM.GetDeploymentsCtx(ctx, nil, types[ty].Name, rdm.MethodExpect, false)
		end()
		if err != nil {
			return err
		}
		// sortedDeployments: the answer is in name order.
		if len(deps) != 2 || deps[0].Name != depName(ty, 0) || deps[1].Name != depName(ty, 1) {
			return fmt.Errorf("resolve %s: got %d deployments, want exactly its 2", types[ty].Name, len(deps))
		}
		return nil
	}
	return inst, nil
}

func depName(i, k int) string { return fmt.Sprintf("resolve-%07d-%c", i, 'a'+k) }

// counters adds up, per name, every series of every site of a grid: the
// program's own exported counters and, as <name>_count and <name>_sum_us,
// its latency histograms, read from outside.
func counters(v *vo.VO) map[string]float64 {
	out := map[string]float64{}
	for _, n := range v.Nodes {
		for _, s := range n.Tel.Registry().Snapshot() {
			switch s.Kind {
			case telemetry.KindCounter:
				out[s.Name] += s.Value
			case telemetry.KindHistogram:
				out[s.Name+"_count"] += float64(s.Histogram.Count)
				out[s.Name+"_sum_us"] += float64(s.Histogram.Sum) / 1e3
			}
		}
	}
	return out
}
