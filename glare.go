// Package glare is a Go implementation of GLARE — the Grid Activity
// Registration, Deployment and Provisioning framework of Siddiqui,
// Villazón, Hofer and Fahringer (SC 2005).
//
// GLARE separates what an application component does (its activity type)
// from where and how it is installed (its activity deployments). A Grid
// workflow is composed against activity types only; GLARE resolves them to
// concrete deployments across a Virtual Organization of Grid sites,
// installing software on demand when no deployment exists, and leasing
// deployments to schedulers that need exclusive or bounded-shared access.
//
// The package exposes two layers:
//
//   - Grid: a whole simulated Virtual Organization — N Grid sites on the
//     loopback interface, each running the full per-site GLARE stack
//     (registries, RDM frontend, super-peer overlay agent, index service)
//     over real HTTP or HTTPS.
//   - Client: a handle onto one site's local GLARE service, which is the
//     only thing a user ever talks to ("clients ... interact only with
//     their local sites").
//
// Quickstart:
//
//	g, _ := glare.NewGrid(glare.GridOptions{Sites: 3})
//	defer g.Close()
//	g.Elect()
//	provider := g.Client(0)
//	provider.RegisterTypes(glare.ImagingTypes()...)
//	scheduler := g.Client(1)
//	deps, _ := scheduler.Discover("ImageConversion") // deploys on demand
package glare

import (
	"fmt"
	"net/url"
	"time"

	"glare/internal/activity"
	"glare/internal/cas"
	"glare/internal/lease"
	"glare/internal/rdm"
	"glare/internal/rrd"
	"glare/internal/semantic"
	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/vo"
	"glare/internal/workload"
	"glare/internal/wsrf"
)

// Re-exported model types. The aliases make the full data model usable
// through the public package.
type (
	// Type is an activity type: the functional description of a component.
	Type = activity.Type
	// Deployment is an installed incarnation of a concrete activity type.
	Deployment = activity.Deployment
	// Installation describes how a type is installed on demand.
	Installation = activity.Installation
	// Constraints restrict the sites a type may be installed on.
	Constraints = activity.Constraints
	// Function describes one behaviour of a type.
	Function = activity.Function
	// Ticket authorizes use of a leased deployment.
	Ticket = lease.Ticket
	// Method selects the deployment mechanics (expect or CoG).
	Method = rdm.Method
	// DeployReport summarizes an on-demand deployment with per-phase
	// timings (the rows of the paper's Table 1).
	DeployReport = rdm.DeployReport
	// Notification is an event delivered to subscribed sinks.
	Notification = wsrf.Notification
	// SemanticQuery describes a wanted capability (function, ports,
	// domain) for type search.
	SemanticQuery = semantic.Query
	// SemanticMatch is one scored semantic search result.
	SemanticMatch = semantic.Match
	// Telemetry is a site's observability bundle: its metrics registry
	// and tracer, also served over HTTP at the site's /metrics, /healthz
	// and /tracez admin endpoints.
	Telemetry = telemetry.Telemetry
	// TraceSpan is one recorded span of a distributed trace.
	TraceSpan = telemetry.SpanRecord
	// StoreStatus summarizes one site's durable store (live file size,
	// live and snapshot record counts, replay and truncation accounting).
	StoreStatus = store.Status
	// DeployStatus summarizes one site's deployment execution engine:
	// in-flight builds, queue pressure, quarantined types and interrupted
	// builds with journaled checkpoints awaiting resume.
	DeployStatus = rdm.DeployRunStatus
	// DeployLimits tunes a site's deployment execution engine (concurrent
	// builds, queue depth, transfer retry, quarantine policy).
	DeployLimits = rdm.DeployLimits
	// HistoryConfig tunes a site's round-robin telemetry history: base
	// step and retention ladder.
	HistoryConfig = rdm.HistoryConfig
	// HistoryStore is a site's round-robin time-series store; Fetch and
	// Xport read consolidated history out of it.
	HistoryStore = rrd.Store
	// Alert is one firing alert-rule instance.
	Alert = rrd.Alert
	// AdmissionConfig tunes a site's overload admission controller:
	// per-class concurrency limits, queue depths and the AIMD latency
	// target.
	AdmissionConfig = transport.AdmissionConfig
	// ClassLimits bounds one priority class (concurrency limit, AIMD
	// floor/ceiling, wait-queue depth).
	ClassLimits = transport.ClassLimits
	// ClassStatus is one priority class's live admission-controller state
	// (limit, inflight, queued, sheds, expired).
	ClassStatus = transport.ClassStatus
)

// Deployment method and mode constants.
const (
	MethodExpect = rdm.MethodExpect
	MethodCoG    = rdm.MethodCoG

	ModeOnDemand = activity.ModeOnDemand
	ModeManual   = activity.ModeManual

	KindExecutable = activity.KindExecutable
	KindService    = activity.KindService

	LeaseExclusive = lease.Exclusive
	LeaseShared    = lease.Shared
)

// ImagingTypes returns the paper's Section-2 example hierarchy (Imaging →
// ImageConversion → POVray → JPOVray, plus the Java and Ant toolchain).
func ImagingTypes() []*Type { return workload.ImagingTypes() }

// EvaluationTypes returns the Table 1 applications (Wien2k, Invmod,
// Counter) as registrable activity types.
func EvaluationTypes() []*Type { return workload.EvaluationTypes() }

// GridOptions configures a simulated Virtual Organization.
type GridOptions struct {
	// Sites is the number of Grid sites (default 3).
	Sites int
	// Secure runs every container over HTTPS with a VO-internal CA.
	Secure bool
	// GroupSize is the super-peer group size (default 4).
	GroupSize int
	// DisableCache turns off the two-level resource cache.
	DisableCache bool
	// RealTime uses the wall clock instead of the default virtual clock
	// (deployment cost models then sleep for real).
	RealTime bool
	// CallTimeout overrides the per-request transport timeout (zero keeps
	// the transport default). Retries happen within each operation, so an
	// operation against an unresponsive site can take a few multiples of
	// this before it is classified unavailable.
	CallTimeout time.Duration
	// ChaosSeed, when nonzero, arms a deterministic fault injector on every
	// site's outbound client; the *Site fault methods (BlackHoleSite,
	// DropSite, DelaySite, RestoreSite) and the partition methods
	// (PartitionSites, HealPartition) then steer it. The seed makes any
	// probabilistic fault pattern reproducible run after run.
	ChaosSeed int64
	// BreakerCooldown overrides how long an open circuit breaker waits
	// before its half-open probe (zero keeps the transport default of 5s).
	// Partition tests shorten it so healed links are re-tried quickly.
	BreakerCooldown time.Duration
	// DataDir enables durable registry stores: every site journals its
	// registrations, deployment documents and leases under
	// DataDir/site-NN, and RestartSite replays the journal instead of
	// losing the site's state. Empty keeps sites memory-only.
	DataDir string
	// Deploy tunes every site's deployment execution engine — concurrent
	// build slots, queue depth, transfer retry and quarantine policy. Zero
	// values use the engine defaults.
	Deploy DeployLimits
	// History tunes every site's round-robin telemetry history: base step
	// and retention archives. The zero value uses the defaults; every site
	// keeps a history.
	History HistoryConfig
	// Admission overrides every site's overload admission controller
	// (per-class concurrency limits, queue depths, AIMD target); nil uses
	// the transport defaults.
	Admission *AdmissionConfig
	// AdmissionOff disables admission control grid-wide — every request
	// executes immediately regardless of load. The baseline configuration
	// for overload experiments.
	AdmissionOff bool
	// ScanDelayPerEntry models remote registry processing time per scanned
	// entry, so overload experiments can give bulk scans a realistic cost.
	ScanDelayPerEntry time.Duration
	// Replicas is the total number of copies (owner included) every
	// registration, deployment document and lease mutation is kept at
	// inside the owning site's peer group. A registration is acknowledged
	// only after a write quorum of copies is durable, so up to Replicas-1
	// simultaneous permanent site losses cannot lose acknowledged writes.
	// Zero or one disables replication.
	Replicas int
}

// Grid is a running Virtual Organization.
type Grid struct {
	vo *vo.VO
}

// NewGrid builds and starts a VO.
func NewGrid(opts GridOptions) (*Grid, error) {
	var clock simclock.Clock
	if opts.RealTime {
		clock = simclock.Real
	}
	var breaker *transport.BreakerConfig
	if opts.BreakerCooldown > 0 {
		bc := transport.DefaultBreakerConfig()
		bc.Cooldown = opts.BreakerCooldown
		breaker = &bc
	}
	v, err := vo.Build(vo.Options{
		Sites:             opts.Sites,
		Secure:            opts.Secure,
		GroupSize:         opts.GroupSize,
		CacheDisabled:     opts.DisableCache,
		Clock:             clock,
		CallTimeout:       opts.CallTimeout,
		ChaosSeed:         opts.ChaosSeed,
		Breaker:           breaker,
		DataDir:           opts.DataDir,
		Deploy:            opts.Deploy,
		History:           opts.History,
		Admission:         opts.Admission,
		AdmissionOff:      opts.AdmissionOff,
		ScanDelayPerEntry: opts.ScanDelayPerEntry,
		ReplicaK:          opts.Replicas,
	})
	if err != nil {
		return nil, err
	}
	return &Grid{vo: v}, nil
}

// Sites returns the number of Grid sites.
func (g *Grid) Sites() int { return len(g.vo.Nodes) }

// SiteName returns the i-th site's name.
func (g *Grid) SiteName(i int) string { return g.vo.Nodes[i].Info.Name }

// SiteURL returns the i-th site's container base URL.
func (g *Grid) SiteURL(i int) string { return g.vo.Nodes[i].Info.BaseURL }

// Elect runs the initial super-peer election from the community-index
// holder. Safe to call more than once.
func (g *Grid) Elect() error { return g.vo.ElectSuperPeers() }

// Now returns the grid clock's current instant (virtual by default), so
// callers can measure how much simulated time an operation consumed.
func (g *Grid) Now() time.Time { return g.vo.Clock.Now() }

// Client returns a handle on the i-th site's local GLARE service.
func (g *Grid) Client(i int) *Client {
	if i < 0 || i >= len(g.vo.Nodes) {
		return nil
	}
	return &Client{svc: g.vo.Nodes[i].RDM}
}

// Telemetry returns the i-th site's observability bundle — the metrics
// registry and tracer that back its /metrics, /healthz and /tracez admin
// endpoints (served under SiteURL(i)).
func (g *Grid) Telemetry(i int) *Telemetry {
	if i < 0 || i >= len(g.vo.Nodes) {
		return nil
	}
	return g.vo.Nodes[i].Tel
}

// ArtifactStats reports site i's content-addressed artifact store state:
// occupancy, hit/miss, peer vs origin fetch counts, verify failures.
func (g *Grid) ArtifactStats(i int) rdm.ArtifactStats {
	if i < 0 || i >= len(g.vo.Nodes) {
		return rdm.ArtifactStats{}
	}
	return g.vo.Nodes[i].RDM.ArtifactStats()
}

// CorruptArtifact flips the stored content sum of a blob held in site i's
// CAS — fault injection for the rotted-peer-copy path: the next reader
// verifies, rejects the copy, and falls back down the ladder.
func (g *Grid) CorruptArtifact(i int, algo, sum string) bool {
	if i < 0 || i >= len(g.vo.Nodes) {
		return false
	}
	return g.vo.Nodes[i].RDM.CorruptArtifact(cas.Key{Algo: algo, Sum: sum})
}

// OriginFetches reports, per source URL, how many origin transfers site
// i's direct GridFTP client has performed — the quantity the artifact
// grid bounds during a flash install.
func (g *Grid) OriginFetches(i int) map[string]int {
	if i < 0 || i >= len(g.vo.Nodes) {
		return nil
	}
	return g.vo.Nodes[i].RDM.FTP.OriginFetches()
}

// OverloadStatus reports site i's admission-controller state, one entry
// per priority class (control, interactive, bulk). Nil when admission is
// disabled (GridOptions.AdmissionOff).
func (g *Grid) OverloadStatus(i int) []ClassStatus {
	if i < 0 || i >= len(g.vo.Nodes) {
		return nil
	}
	adm := g.vo.Nodes[i].Server.Admission()
	if adm == nil {
		return nil
	}
	return adm.Status()
}

// StopSite simulates a site failure (its container stops answering).
// Super-peer failures trigger re-election among the survivors.
func (g *Grid) StopSite(i int) { g.vo.StopSite(i) }

// RestartSite brings a stopped site back on its original address — the
// crash-recovery path. With GridOptions.DataDir set, the restarted site
// replays its journal and comes back with the registrations, deployment
// documents and unexpired leases it crashed with; without DataDir it
// comes back empty. It refuses sites that were never stopped, sites that
// are already restarting, and sites removed with KillSite (use
// ReplaceSite). Site 0 (community-index holder) is not restartable.
func (g *Grid) RestartSite(i int) error { return g.vo.RestartSite(i) }

// KillSite simulates the permanent loss of site i: the container stops
// answering forever and, with GridOptions.DataDir set, its on-disk journal
// is destroyed — there is nothing to restart. With GridOptions.Replicas
// ≥ 2, the site's acknowledged registrations survive on its replica set
// and a super-peer promotes the most-caught-up replica to authoritative
// owner. Site 0 (community-index holder) cannot be killed.
func (g *Grid) KillSite(i int) error { return g.vo.KillSite(i) }

// ReplaceSite stands up a fresh, empty site on a killed site's name and
// address — the dead machine's replacement joining the VO. Replicated
// data adopted elsewhere is handed back on the next repair pass.
func (g *Grid) ReplaceSite(i int) error { return g.vo.ReplaceSite(i) }

// siteDest maps a site index to the host:port key the fault injector
// matches requests on.
func (g *Grid) siteDest(i int) (string, error) {
	if g.vo.Chaos == nil {
		return "", fmt.Errorf("glare: fault injection disarmed; set GridOptions.ChaosSeed")
	}
	if i < 0 || i >= len(g.vo.Nodes) {
		return "", fmt.Errorf("glare: no site %d", i)
	}
	u, err := url.Parse(g.vo.Nodes[i].Info.BaseURL)
	if err != nil {
		return "", err
	}
	return u.Host, nil
}

// BlackHoleSite makes every request to site i hang until the caller's
// timeout — the network-partition failure mode. The site itself keeps
// running; only traffic towards it is swallowed. Requires ChaosSeed.
func (g *Grid) BlackHoleSite(i int) error {
	dest, err := g.siteDest(i)
	if err != nil {
		return err
	}
	g.vo.Chaos.BlackHole(dest)
	return nil
}

// DropSite makes every request to site i fail immediately, like a
// refused connection. Requires ChaosSeed.
func (g *Grid) DropSite(i int) error {
	dest, err := g.siteDest(i)
	if err != nil {
		return err
	}
	g.vo.Chaos.Drop(dest)
	return nil
}

// RestoreSite removes site i's fault rule; traffic flows normally again.
// Requires ChaosSeed.
func (g *Grid) RestoreSite(i int) error {
	dest, err := g.siteDest(i)
	if err != nil {
		return err
	}
	g.vo.Chaos.Restore(dest)
	return nil
}

// PartitionSites severs the network between two halves of the grid: every
// request from a site in a to a site in b (and vice versa) is dropped,
// while traffic within each half flows normally — the classic split-brain
// scenario. A site listed in neither half can talk to both. Requires
// ChaosSeed. Replaces any previous partition.
func (g *Grid) PartitionSites(a, b []int) error {
	hostsOf := func(idx []int) ([]string, error) {
		out := make([]string, 0, len(idx))
		for _, i := range idx {
			dest, err := g.siteDest(i)
			if err != nil {
				return nil, err
			}
			out = append(out, dest)
		}
		return out, nil
	}
	hostsA, err := hostsOf(a)
	if err != nil {
		return err
	}
	hostsB, err := hostsOf(b)
	if err != nil {
		return err
	}
	g.vo.Chaos.Partition(hostsA, hostsB)
	return nil
}

// HealPartition reconnects the halves split by PartitionSites. The overlay
// does not converge by itself at that instant: the super-peers' rival
// probes (CheckRivals, in the liveness monitor pass) detect the double
// reign and merge the views, and registry sync reconciles what diverged.
func (g *Grid) HealPartition() error {
	if g.vo.Chaos == nil {
		return fmt.Errorf("glare: fault injection disarmed; set GridOptions.ChaosSeed")
	}
	g.vo.Chaos.Heal()
	return nil
}

// FailBuildStep makes the named step of the type's build fail with a
// transient error on site i for the next n executions — the engine's
// per-step retry may absorb it; exhausted retries fail (and eventually
// quarantine) the type. Unlike the network fault methods, build-step
// injection is always armed.
func (g *Grid) FailBuildStep(i int, typeName, step string, n int) {
	g.vo.Nodes[i].Deploy.FailStep(typeName, step, n)
}

// CrashBuildStep arms a one-shot simulated daemon crash at the named step
// of the type's build on site i: the build aborts with its checkpoints
// intact, so after StopSite/RestartSite the deployment resumes at the
// first incomplete step.
func (g *Grid) CrashBuildStep(i int, typeName, step string) {
	g.vo.Nodes[i].Deploy.CrashStep(typeName, step)
}

// DelayBuildStep stalls the named step for d (real time) on every
// execution on site i until ClearBuildFaults — long enough to overlap
// concurrent duplicate requests in dedup tests.
func (g *Grid) DelayBuildStep(i int, typeName, step string, d time.Duration) {
	g.vo.Nodes[i].Deploy.DelayStep(typeName, step, d)
}

// ClearBuildFaults disarms every build-step fault on site i.
func (g *Grid) ClearBuildFaults(i int) {
	g.vo.Nodes[i].Deploy.Clear()
}

// SkewSite displaces site i's wall clock by offset (negative runs slow):
// every timestamp the site reads — registry LastUpdateTimes, lease grants,
// expiry sweeps — is shifted, while timers and sleeps still follow the
// shared grid clock. Clock skew is always armed (no ChaosSeed needed) and
// survives RestartSite/ReplaceSite.
func (g *Grid) SkewSite(i int, offset time.Duration) { g.vo.SkewSite(i, offset) }

// DriftSite makes site i's clock wander at rate seconds gained per second
// of grid time (negative falls behind), on top of any fixed skew.
func (g *Grid) DriftSite(i int, rate float64) { g.vo.DriftSite(i, rate) }

// ClockOffset reports site i's current total clock displacement (skew plus
// accrued drift) from the shared grid clock.
func (g *Grid) ClockOffset(i int) time.Duration { return g.vo.ClockOffset(i) }

// SkewGrid arms a deterministic seeded skew schedule across every site:
// offsets drawn uniformly from [-max, +max] plus a small drift in the same
// direction. Returns the offsets applied, keyed by site name.
func (g *Grid) SkewGrid(seed int64, max time.Duration) map[string]time.Duration {
	return g.vo.ScheduleSkew(seed, max)
}

// SuperPeerOf returns the current super-peer site name seen by site i.
func (g *Grid) SuperPeerOf(i int) string {
	return g.vo.Nodes[i].Agent.View().SuperPeer.Name
}

// EpochOf returns the view epoch site i currently holds — the overlay's
// fencing token, which every election, takeover or split-brain merge
// advances.
func (g *Grid) EpochOf(i int) uint64 {
	return g.vo.Nodes[i].Agent.View().Epoch
}

// IsSuperPeer reports whether site i currently acts as a super-peer.
func (g *Grid) IsSuperPeer(i int) bool {
	return g.vo.Nodes[i].Agent.Role().String() == "SuperPeer"
}

// Advance moves the grid's virtual clock d forward, running every running
// site's monitor passes inline at each instant one comes due (see
// rdm.AdvanceMonitors). A RealTime grid has no clock to step; its sites
// run their schedules from rdm.Service.StartMonitors instead.
func (g *Grid) Advance(d time.Duration) error {
	vc, ok := g.vo.Clock.(*simclock.Virtual)
	if !ok {
		return fmt.Errorf("glare: Advance needs a virtual-clock grid")
	}
	var sites []*rdm.Service
	for i, n := range g.vo.Nodes {
		if !g.vo.Stopped(i) {
			sites = append(sites, n.RDM)
		}
	}
	rdm.AdvanceMonitors(sites, d, vc.Advance)
	return nil
}

// Close stops the whole VO.
func (g *Grid) Close() { g.vo.Close() }

// Client is a handle on one site's local GLARE service — the only
// interface a scheduler, enactment engine, or activity provider uses.
type Client struct {
	svc *rdm.Service
}

// SiteName returns the name of the Grid site this client talks to.
func (c *Client) SiteName() string { return c.svc.Site().Attrs.Name }

// Telemetry returns the site's observability bundle (metrics + traces).
func (c *Client) Telemetry() *Telemetry { return c.svc.Telemetry() }

// RegisterType registers an activity type with the local GLARE service.
// Registration on a single site is enough: the distributed framework makes
// it discoverable VO-wide.
func (c *Client) RegisterType(t *Type) error {
	_, err := c.svc.RegisterType(t)
	return err
}

// RegisterTypes registers several types, stopping at the first error.
func (c *Client) RegisterTypes(types ...*Type) error {
	for _, t := range types {
		if err := c.RegisterType(t); err != nil {
			return fmt.Errorf("glare: registering %q: %w", t.Name, err)
		}
	}
	return nil
}

// RegisterDeployment exposes pre-installed software as a deployment.
func (c *Client) RegisterDeployment(d *Deployment) error {
	_, err := c.svc.RegisterDeployment(d)
	return err
}

// ProvisionExecutable materializes a pre-installed executable on the
// site's (simulated) filesystem, so deployments registered for software
// that was "already there" can actually be instantiated. On a real Grid
// site the file would simply exist.
func (c *Client) ProvisionExecutable(path string) {
	c.svc.Site().FS.Write(path, site.KindExecutable, 1<<20, "", "")
}

// Discover resolves an activity type (abstract or concrete) to its
// deployments across the VO, installing on demand when none exist.
func (c *Client) Discover(typeName string) ([]*Deployment, error) {
	return c.svc.GetDeployments(typeName, rdm.MethodExpect, true)
}

// DiscoverNoDeploy resolves deployments but never installs.
func (c *Client) DiscoverNoDeploy(typeName string) ([]*Deployment, error) {
	return c.svc.GetDeployments(typeName, rdm.MethodExpect, false)
}

// Deploy forces an on-demand deployment of a concrete type with the given
// method and returns the per-phase timing report.
func (c *Client) Deploy(typeName string, method Method) (*DeployReport, error) {
	return c.svc.DeployOnDemand(typeName, method)
}

// Undeploy removes a deployment from this site (registry entry, installed
// files, hosted service).
func (c *Client) Undeploy(deployment string) error { return c.svc.Undeploy(deployment) }

// Migrate moves a deployment from this site to another eligible one.
func (c *Client) Migrate(deployment string, method Method) (*DeployReport, error) {
	return c.svc.Migrate(deployment, method)
}

// Lease reserves a deployment for a client over the duration. Kind is
// LeaseExclusive or LeaseShared.
func (c *Client) Lease(deployment, client string, kind lease.Kind, d time.Duration) (Ticket, error) {
	return c.svc.Leases.Acquire(deployment, client, kind, d)
}

// SetSharedLimit bounds concurrent shared lessees of a deployment.
func (c *Client) SetSharedLimit(deployment string, max int) {
	c.svc.Leases.SetSharedLimit(deployment, max)
}

// Release ends a lease early.
func (c *Client) Release(ticketID uint64) error { return c.svc.Leases.Release(ticketID) }

// Instantiate runs a deployment (as a GRAM job for executables), enforcing
// leases; ticketID 0 means unleased use.
func (c *Client) Instantiate(deployment, client string, ticketID uint64, args string) error {
	return c.svc.Instantiate(deployment, client, ticketID, args)
}

// Subscribe registers a callback for local GLARE events on a topic
// (TopicDeployment, TopicResourceCreated, ..., and TopicElection for every
// overlay view the site installs).
func (c *Client) Subscribe(topic string, fn func(Notification)) error {
	_, err := c.svc.Broker().Subscribe(topic, wsrf.SinkFunc(fn))
	return err
}

// Notification topics.
const (
	TopicDeployment        = wsrf.TopicDeployment
	TopicResourceCreated   = wsrf.TopicResourceCreated
	TopicResourceUpdated   = wsrf.TopicResourceUpdated
	TopicResourceDestroyed = wsrf.TopicResourceDestroyed
	TopicElection          = wsrf.TopicElection
)

// Search ranks the site's registered activity types against a semantic
// capability description (paper §6 future work: ontological type search).
func (c *Client) Search(q SemanticQuery) ([]SemanticMatch, error) {
	return c.svc.SearchTypes(q)
}

// WrapService generates and registers a web-service wrapper around an
// executable deployment (the paper's planned Otho-toolkit integration for
// legacy code).
func (c *Client) WrapService(executableDeployment string) (*Deployment, error) {
	return c.svc.WrapService(executableDeployment)
}

// ResolveTypes resolves an activity type name (abstract or concrete) to
// the concrete types known across the VO, without touching deployments.
// The replication invariant checker uses it to prove an acknowledged
// registration is still resolvable after its owning site died.
func (c *Client) ResolveTypes(typeName string) ([]*Type, error) {
	return c.svc.ResolveConcrete(typeName)
}

// Types lists the activity types registered on this site.
func (c *Client) Types() []string { return c.svc.ATR.Names() }

// Deployments lists the deployments registered on this site.
func (c *Client) Deployments() []*Deployment { return c.svc.ADR.All() }

// StoreStatus reports the site's durable-store summary; ok is false on
// memory-only sites (no GridOptions.DataDir).
func (c *Client) StoreStatus() (StoreStatus, bool) {
	st := c.svc.Store()
	if st == nil {
		return StoreStatus{}, false
	}
	return st.Status(), true
}

// DeployEngineStatus reports the site's deployment execution engine state:
// in-flight builds, queue pressure, quarantined types and resumable
// checkpointed builds.
func (c *Client) DeployEngineStatus() DeployStatus {
	return c.svc.DeployRunStatus()
}

// History exposes this site's round-robin time-series store.
func (c *Client) History() *HistoryStore { return c.svc.History() }

// FiringAlerts lists the site's currently firing alert-rule instances.
func (c *Client) FiringAlerts() []Alert { return c.svc.FiringAlerts() }

// AdminNotices returns the site administrator's mailbox (manual-install
// requests, failure notifications).
func (c *Client) AdminNotices() []string {
	var out []string
	for _, n := range c.svc.Site().Notices() {
		out = append(out, n.Subject+": "+n.Body)
	}
	return out
}
