// Package vo assembles a simulated Virtual Organization: N Grid sites on
// the loopback interface, each running the full per-site stack (transport
// container, Default Index, ATR, ADR, PeerService, GLARE RDM), wired into
// the GT4-style aggregation hierarchy with one community index, ready for
// super-peer election.
//
// This is the stand-in for the Austrian Grid testbed of the paper's
// evaluation: everything above the site substrate is the production code
// path — real HTTP(S) between sites, real registries, real elections.
package vo

import (
	"crypto/tls"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"glare/internal/epr"
	"glare/internal/faultinject"
	"glare/internal/gsi"
	"glare/internal/mds"
	"glare/internal/rdm"
	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/workload"
	"glare/internal/wsrf"
)

// Options configures a VO build.
type Options struct {
	// Sites is the number of Grid sites (default 3).
	Sites int
	// Secure enables HTTPS with a VO-internal CA on every container.
	Secure bool
	// GroupSize is the super-peer group size (default superpeer default).
	GroupSize int
	// Clock is shared by all sites; nil means a fresh virtual clock.
	Clock simclock.Clock
	// CacheDisabled turns off RDM caches VO-wide (Fig. 12 config).
	CacheDisabled bool
	// CacheTTL overrides the cache TTL.
	CacheTTL time.Duration
	// ScanDelayPerEntry models remote registry processing per scanned
	// entry (see rdm.Config).
	ScanDelayPerEntry time.Duration
	// CallTimeout overrides the transport per-request timeout (zero uses
	// transport.DefaultCallTimeout).
	CallTimeout time.Duration
	// Breaker overrides the per-site clients' circuit-breaker config; nil
	// uses transport.DefaultBreakerConfig.
	Breaker *transport.BreakerConfig
	// ChaosSeed, when nonzero, installs a deterministic fault injector on
	// every client so tests can drop, delay or black-hole traffic per
	// destination (see VO.Chaos).
	ChaosSeed int64
	// DataDir enables durable registry stores: each site journals its ATR,
	// ADR and lease mutations under DataDir/site-NN and replays them on
	// restart (see RestartSite). Empty keeps every site memory-only.
	DataDir string
	// Deploy tunes every site's deployment execution engine (concurrency,
	// queue depth, retry, quarantine); zero uses rdm.DefaultDeployLimits.
	Deploy rdm.DeployLimits
	// History tunes every site's round-robin telemetry history (sampling
	// step, retention); the zero value enables defaults.
	History rdm.HistoryConfig
	// Admission overrides every site's overload admission controller
	// (per-class concurrency limits, queue depths, AIMD target); nil uses
	// transport.DefaultAdmissionConfig.
	Admission *transport.AdmissionConfig
	// AdmissionOff disables admission control VO-wide: every request is
	// executed immediately regardless of load (pre-PR-7 behaviour, and the
	// baseline for overload experiments).
	AdmissionOff bool
	// ReplicaK is the registry replication factor: every site's ATR/ADR/
	// lease mutations are journaled on ReplicaK group members (itself
	// included) and registrations acknowledge only after a write quorum.
	// Zero or one keeps replication off.
	ReplicaK int
}

// Node is one Grid site's full stack.
type Node struct {
	Site   *site.Site
	Server *transport.Server
	RDM    *rdm.Service
	Agent  *superpeer.Agent
	Index  *mds.Index
	Info   superpeer.SiteInfo
	Tel    *telemetry.Telemetry
	// Client is the site's own outbound transport client: its retry,
	// circuit-breaker and telemetry state belong to this caller, so a
	// destination one site has learned is dead is fast-failed by every
	// subsystem on that site (RDM resolution, heartbeats, takeover) while
	// other sites form their own opinion.
	Client *transport.Client
	// Deploy injects faults into this site's deployment steps. It survives
	// RestartSite, so a rule armed before a crash stays armed on the
	// rebuilt stack.
	Deploy *faultinject.DeployChaos
}

// VO is a running virtual organization.
type VO struct {
	Clock    simclock.Clock
	Repo     *site.Repo
	Resolver *workload.Resolver
	CA       *gsi.Authority
	// Client is the VO-wide admin client (protocol tests, glarectl-style
	// scrapes); each Node additionally owns a per-site client.
	Client    *transport.Client
	Nodes     []*Node
	Community *mds.Index
	// Chaos is the fault injector shared by every client; nil unless
	// Options.ChaosSeed was set.
	Chaos *faultinject.Injector

	// opts is the (defaults-filled) build configuration, retained so
	// RestartSite can rebuild a site exactly as Build did.
	opts Options
	// mu guards the lifecycle state below: concurrent Stop/Restart/Kill/
	// Replace calls serialize instead of racing a live listener.
	mu      sync.Mutex
	stopped map[int]bool
	// killed marks sites destroyed permanently (KillSite): their data
	// directory is gone and only ReplaceSite may bring the slot back.
	killed map[int]bool
	// restarting marks sites whose stack is being rebuilt, so a second
	// RestartSite gets a clear error instead of racing the first.
	restarting map[int]bool
	// deployChaos holds each site's step-fault injector across restarts.
	deployChaos map[int]*faultinject.DeployChaos
	// clockChaos owns each site's skewable clock view (keyed by site name,
	// so an armed skew survives RestartSite/ReplaceSite like deploy chaos
	// does). Always present: an unskewed view reads exactly like Clock.
	clockChaos *faultinject.ClockChaos
}

// siteAttrs fabricates realistic, mutually distinct site attributes.
func siteAttrs(i int) site.Attributes {
	return site.Attributes{
		Name:         fmt.Sprintf("agrid%02d.uibk.ac.at", i+1),
		ProcessorMHz: 1000 + 250*(i%5),
		MemoryMB:     1024 * (1 + i%4),
		UptimeHours:  200 + 37*i,
		Processors:   4 * (1 + i%3),
		Platform:     "Intel",
		OS:           "Linux",
		Arch:         "32bit",
	}
}

// Build constructs and starts a VO.
func Build(opts Options) (*VO, error) {
	if opts.Sites <= 0 {
		opts.Sites = 3
	}
	clock := opts.Clock
	if clock == nil {
		clock = simclock.NewVirtual(time.Time{})
	}
	repo := site.StandardUniverse()
	resolver := workload.NewResolver(repo)

	opts.Clock = clock
	v := &VO{
		Clock: clock, Repo: repo, Resolver: resolver, opts: opts,
		stopped:     map[int]bool{},
		killed:      map[int]bool{},
		restarting:  map[int]bool{},
		deployChaos: map[int]*faultinject.DeployChaos{},
		clockChaos:  faultinject.NewClockChaos(),
	}
	if opts.ChaosSeed != 0 {
		v.Chaos = faultinject.New(opts.ChaosSeed)
	}
	if opts.Secure {
		ca, err := gsi.NewAuthority("glare-vo-ca")
		if err != nil {
			return nil, err
		}
		v.CA = ca
	}
	v.Client = v.newClient(opts, nil, "")

	for i := 0; i < opts.Sites; i++ {
		node, err := v.buildNode(i, opts, "127.0.0.1:0")
		if err != nil {
			v.Close()
			return nil, err
		}
		v.Nodes = append(v.Nodes, node)
	}
	// Hierarchical aggregation: every default index feeds the community
	// index (held by site 0), and every site registers itself there.
	v.Community = v.Nodes[0].Index
	for i, n := range v.Nodes {
		if i != 0 {
			n.Index.AddUpstream(v.Community)
		}
		siteEPR := epr.New(n.Info.ServiceURL(rdm.ServiceName), "SiteKey", n.Info.Name)
		siteEPR.LastUpdateTime = n.RDM.HLC().Now()
		n.Index.Register(siteEPR, n.Info.ToXML())
	}
	return v, nil
}

// newClient assembles one fault-tolerant transport client: retries with
// backoff, a shared retry budget, per-destination circuit breakers, and
// — when chaos is armed — the VO's fault injector. tel may be nil for
// the VO-wide admin client, whose source is "" so it is never caught in a
// simulated network partition; per-site clients carry their own host:port
// as source (see buildNode) and land on one side of the split.
func (v *VO) newClient(opts Options, tel *telemetry.Telemetry, source string) *transport.Client {
	var tlsConf *tls.Config
	if v.CA != nil {
		tlsConf = v.CA.ClientConfig()
	}
	c := transport.NewClientTimeout(tlsConf, opts.CallTimeout)
	c.SetRetryPolicy(transport.DefaultRetryPolicy())
	c.SetRetryBudget(transport.NewRetryBudget(0, 0))
	breaker := transport.DefaultBreakerConfig()
	if opts.Breaker != nil {
		breaker = *opts.Breaker
	}
	c.SetBreaker(breaker)
	if tel != nil {
		c.SetTelemetry(tel)
	}
	if v.Chaos != nil {
		c.WrapTransport(v.Chaos.WrapSource(source))
	}
	return c
}

// hostOf extracts the host:port chaos-partition key from a base URL.
func hostOf(baseURL string) string {
	u, err := url.Parse(baseURL)
	if err != nil {
		return ""
	}
	return u.Host
}

// buildNode assembles one site's stack listening on addr ("127.0.0.1:0"
// for a fresh ephemeral port; RestartSite passes the site's original
// host:port so EPRs minted before a crash stay routable).
func (v *VO) buildNode(i int, opts Options, addr string) (*Node, error) {
	attrs := siteAttrs(i)
	// Every site reads time through its own skewable view of the shared
	// clock: autonomous sites do not share a wall clock, and the clock-chaos
	// injector (SkewSite/DriftSite) displaces exactly this view. Undisplaced
	// views read identically to v.Clock, so unskewed grids are unchanged.
	siteClock := v.clockChaos.View(attrs.Name, v.Clock)
	st := site.New(attrs, siteClock, v.Repo)
	srv := transport.NewServer()
	if opts.Secure {
		conf, err := v.CA.ServerConfig("127.0.0.1")
		if err != nil {
			return nil, err
		}
		if err := srv.Start(addr, conf); err != nil {
			return nil, err
		}
	} else {
		if err := srv.Start(addr, nil); err != nil {
			return nil, err
		}
	}
	info := superpeer.SiteInfo{Name: attrs.Name, Rank: attrs.Rank(), BaseURL: srv.BaseURL()}
	tel := telemetry.New(attrs.Name)
	if !opts.AdmissionOff {
		acfg := transport.DefaultAdmissionConfig()
		if opts.Admission != nil {
			acfg = *opts.Admission
		}
		srv.SetAdmission(transport.NewAdmission(acfg, tel))
	}
	cli := v.newClient(opts, tel, hostOf(srv.BaseURL()))
	// The agent's broker is the site's one notification broker: rdm.New
	// adopts it, so registry and election notifications share subscribers.
	agent := superpeer.NewAgent(info, cli, wsrf.NewBroker(siteClock))

	kind := mds.DefaultIndex
	if i == 0 {
		kind = mds.CommunityIndex
	}
	index := mds.New(fmt.Sprintf("index-%s", attrs.Name), kind, siteClock)

	// Durability: open (and recover) the site's journal before the RDM is
	// assembled, so rdm.New replays it into the fresh registries.
	var durable *store.Store
	if opts.DataDir != "" {
		var err error
		durable, err = store.Open(store.Options{
			Dir:   filepath.Join(opts.DataDir, fmt.Sprintf("site-%02d", i+1)),
			Clock: siteClock,
		})
		if err != nil {
			srv.Close()
			return nil, err
		}
	}

	// The step-fault injector is per-site and survives restarts, so chaos
	// armed before a simulated crash stays armed on the rebuilt stack.
	chaos := v.deployChaos[i]
	if chaos == nil {
		chaos = faultinject.NewDeployChaos()
		v.deployChaos[i] = chaos
	}

	svc, err := rdm.New(rdm.Config{
		Site:              st,
		Clock:             siteClock,
		Client:            cli,
		Agent:             agent,
		LocalIndex:        index,
		DeployFiles:       v.Resolver.Fetch,
		GroupSize:         opts.GroupSize,
		CacheTTL:          opts.CacheTTL,
		ScanDelayPerEntry: opts.ScanDelayPerEntry,
		CacheDisabled:     opts.CacheDisabled,
		Telemetry:         tel,
		Store:             durable,
		Deploy:            opts.Deploy,
		DeployHook:        chaos.Step,
		History:           opts.History,
		ReplicaK:          opts.ReplicaK,
	})
	if err != nil {
		if durable != nil {
			durable.Close()
		}
		srv.Close()
		return nil, err
	}
	// HLC exchange: the site's stamps ride every envelope it sends (client)
	// and every response it serves (server), so any message exchange bounds
	// its ordering divergence from the rest of the grid.
	cli.SetHLC(svc.HLC())
	srv.SetHLC(svc.HLC())
	svc.Mount(srv)
	svc.MountExtensions(srv)
	return &Node{Site: st, Server: srv, RDM: svc, Agent: agent, Index: index, Info: info, Tel: tel, Client: cli, Deploy: chaos}, nil
}

// ElectSuperPeers runs the initial election from the community-index
// holder (the Index Monitor path).
func (v *VO) ElectSuperPeers() error {
	return v.Nodes[0].RDM.CheckIndex()
}

// StopSite simulates a site failure: its container stops answering.
func (v *VO) StopSite(i int) {
	v.mu.Lock()
	if v.stopped[i] {
		v.mu.Unlock()
		return
	}
	v.stopped[i] = true
	v.mu.Unlock()
	v.Nodes[i].RDM.Stop()
	v.Nodes[i].Server.Close()
}

// Stopped reports whether a site was stopped.
func (v *VO) Stopped(i int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stopped[i]
}

// KillSite simulates PERMANENT site loss: the container stops answering
// and — unlike StopSite — the site's durable state is destroyed, so
// RestartSite can never bring it back. This is the disaster quorum
// replication exists for; ReplaceSite later joins a fresh, empty site
// under the same name and address, and promoted replicas hand the data
// back. Site 0 is refused: it holds the community index.
func (v *VO) KillSite(i int) error {
	v.mu.Lock()
	switch {
	case i <= 0 || i >= len(v.Nodes):
		v.mu.Unlock()
		return fmt.Errorf("vo: cannot kill site %d (site 0 holds the community index)", i)
	case v.killed[i]:
		v.mu.Unlock()
		return fmt.Errorf("vo: site %d is already killed", i)
	}
	v.killed[i] = true
	alreadyStopped := v.stopped[i]
	v.stopped[i] = true
	v.mu.Unlock()
	if !alreadyStopped {
		v.Nodes[i].RDM.Stop()
		v.Nodes[i].Server.Close()
	}
	if v.opts.DataDir != "" {
		if err := os.RemoveAll(filepath.Join(v.opts.DataDir, fmt.Sprintf("site-%02d", i+1))); err != nil {
			return fmt.Errorf("vo: destroying site %d state: %w", i, err)
		}
	}
	return nil
}

// ReplaceSite joins a fresh, empty replacement for a killed site, reusing
// the dead site's name and host:port so the overlay view and every minted
// EPR keep routing. The replacement owns nothing until promoted holders
// hand the dead site's data back (see rdm.RepairReplicas).
func (v *VO) ReplaceSite(i int) error {
	v.mu.Lock()
	switch {
	case i <= 0 || i >= len(v.Nodes):
		v.mu.Unlock()
		return fmt.Errorf("vo: cannot replace site %d", i)
	case !v.killed[i]:
		v.mu.Unlock()
		return fmt.Errorf("vo: site %d was not killed; use RestartSite for stopped sites", i)
	case v.restarting[i]:
		v.mu.Unlock()
		return fmt.Errorf("vo: site %d is already being rebuilt", i)
	}
	v.restarting[i] = true
	v.mu.Unlock()
	err := v.rebuildSite(i)
	v.mu.Lock()
	delete(v.restarting, i)
	if err == nil {
		delete(v.killed, i)
		delete(v.stopped, i)
	}
	v.mu.Unlock()
	return err
}

// RestartSite rebuilds a stopped site's full stack on its original
// host:port — the glared-crashed-and-came-back path. With Options.DataDir
// set, the rebuilt RDM recovers the site's journal, so its registrations,
// deployment documents and unexpired leases survive without any
// re-registration traffic; reusing the address keeps EPRs minted before
// the crash routable. Site 0 cannot be restarted: it holds the community
// index, whose aggregated entries are rebuilt by anti-entropy rather than
// journaled.
func (v *VO) RestartSite(i int) error {
	v.mu.Lock()
	switch {
	case i <= 0 || i >= len(v.Nodes):
		v.mu.Unlock()
		return fmt.Errorf("vo: cannot restart site %d (site 0 holds the community index)", i)
	case v.killed[i]:
		v.mu.Unlock()
		return fmt.Errorf("vo: site %d was killed permanently; use ReplaceSite", i)
	case !v.stopped[i]:
		v.mu.Unlock()
		return fmt.Errorf("vo: site %d is not stopped", i)
	case v.restarting[i]:
		v.mu.Unlock()
		return fmt.Errorf("vo: site %d is already being restarted", i)
	}
	v.restarting[i] = true
	v.mu.Unlock()
	err := v.rebuildSite(i)
	v.mu.Lock()
	delete(v.restarting, i)
	if err == nil {
		delete(v.stopped, i)
	}
	v.mu.Unlock()
	return err
}

// rebuildSite rebuilds a site's full stack on its original host:port and
// re-joins it to the aggregation hierarchy exactly as Build wired it.
// Callers hold the lifecycle markers (restarting/stopped/killed).
func (v *VO) rebuildSite(i int) error {
	old := v.Nodes[i]
	if old.Client != nil {
		old.Client.CloseIdle()
	}
	node, err := v.buildNode(i, v.opts, hostOf(old.Info.BaseURL))
	if err != nil {
		return err
	}
	v.Nodes[i] = node
	node.Index.AddUpstream(v.Community)
	siteEPR := epr.New(node.Info.ServiceURL(rdm.ServiceName), "SiteKey", node.Info.Name)
	siteEPR.LastUpdateTime = node.RDM.HLC().Now()
	node.Index.Register(siteEPR, node.Info.ToXML())
	return nil
}

// SkewSite displaces site i's wall clock by offset (negative runs slow).
// Only what the site READS changes: timers and sleeps still follow the
// shared base clock, so virtual-time tests keep advancing everyone.
// The skew survives RestartSite and ReplaceSite (keyed by site name).
func (v *VO) SkewSite(i int, offset time.Duration) {
	v.clockChaos.SkewSite(v.Nodes[i].Info.Name, offset)
}

// DriftSite makes site i's clock wander at rate seconds gained per second
// of base time (negative falls behind), on top of any fixed offset.
func (v *VO) DriftSite(i int, rate float64) {
	v.clockChaos.DriftSite(v.Nodes[i].Info.Name, rate)
}

// ClockOffset reports site i's current total displacement from the shared
// base clock (offset plus accrued drift).
func (v *VO) ClockOffset(i int) time.Duration {
	return v.clockChaos.Offset(v.Nodes[i].Info.Name)
}

// ScheduleSkew arms a deterministic seeded skew schedule VO-wide: every
// site draws an offset uniformly from [-max, +max] plus a small drift in
// the same direction. Returns the offsets applied, keyed by site name.
func (v *VO) ScheduleSkew(seed int64, max time.Duration) map[string]time.Duration {
	return v.clockChaos.ScheduleSkew(seed, max)
}

// RegisterImagingStack registers the Section-2 type hierarchy on one site.
func (v *VO) RegisterImagingStack(i int) error {
	for _, t := range workload.ImagingTypes() {
		if _, err := v.Nodes[i].RDM.RegisterType(t); err != nil {
			return err
		}
	}
	return nil
}

// RegisterEvaluationApps registers the Table 1 application types on one
// site.
func (v *VO) RegisterEvaluationApps(i int) error {
	for _, t := range workload.EvaluationTypes() {
		if _, err := v.Nodes[i].RDM.RegisterType(t); err != nil {
			return err
		}
	}
	return nil
}

// Close stops every site.
func (v *VO) Close() {
	for i := range v.Nodes {
		v.StopSite(i)
	}
	for _, n := range v.Nodes {
		if n.Client != nil {
			n.Client.CloseIdle()
		}
	}
	if v.Client != nil {
		v.Client.CloseIdle()
	}
}
