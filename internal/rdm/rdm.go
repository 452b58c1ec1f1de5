// Package rdm implements the GLARE Registration, Deployment and Monitoring
// service — "the main frontend service which consists of components
// including Request Manager, Deployment Manager, Cache Refresher, Index
// Monitor and Deployment Status Monitor" (paper §3.2).
//
// One Service runs per Grid site. Clients only ever talk to their local
// RDM ("clients ... interact only with their local sites"): the service
// resolves activity types and deployments from the local registries, its
// caches, the peer group, and — through the super-peer — the rest of the
// VO, and performs on-demand deployment when a requested type has no
// deployment anywhere.
package rdm

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"glare/internal/adr"
	"glare/internal/atr"
	"glare/internal/cache"
	"glare/internal/cas"
	"glare/internal/deployfile"
	"glare/internal/gram"
	"glare/internal/gridftp"
	"glare/internal/hlc"
	"glare/internal/lease"
	"glare/internal/mds"
	"glare/internal/replicate"
	"glare/internal/rrd"
	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/wsrf"
)

// ServiceName is the RDM's transport mount point.
const ServiceName = "GLARE"

// Method selects the deployment mechanics of Table 1.
type Method string

const (
	MethodExpect Method = "expect"
	MethodCoG    Method = "cog"
)

// The modeled WSRF interaction costs of the deployment phases that are not
// otherwise simulated (remote resource creation, notification delivery),
// calibrated against Table 1.
const (
	typeAdditionCost = 640 * time.Millisecond  // "Activity Type Addition" (~630-665 ms)
	registrationCost = 352 * time.Millisecond  // "Activity Deployment Registration" (~350 ms)
	notificationCost = 345 * time.Millisecond  // "Notification" (345 ms)
	expectLoginCost  = 2100 * time.Millisecond // "Expect Overhead" (2,100 ms)
)

// Config assembles one site's RDM service.
type Config struct {
	Site  *site.Site
	Clock simclock.Clock
	// Client talks to remote services; TLS config must match the VO.
	// Required.
	Client *transport.Client
	// Agent is the super-peer overlay participant for this site. Required:
	// its SiteInfo names the site on the wire and addresses the services
	// the site hosts, and its broker becomes the site's notification
	// broker, so registry and election notifications share one topic space.
	Agent *superpeer.Agent
	// LocalIndex is the site's GT4 Default Index (may be the community
	// index on the root site); probed by the Index Monitor. Required.
	LocalIndex *mds.Index
	// GroupSize is the super-peer group size used when this site becomes
	// election coordinator; zero uses the overlay default.
	GroupSize int
	// DeployFiles resolves deploy-file URLs published by providers.
	DeployFiles func(url string) (*deployfile.Build, error)
	// CacheTTL bounds cached remote resources; zero = cache.DefaultTTL.
	CacheTTL time.Duration
	// CacheDisabled turns local caching off (the Fig. 12 "without cache"
	// configuration).
	CacheDisabled bool
	// ScanDelayPerEntry models the remote registry container's processing
	// time per scanned deployment entry when answering a site-scope
	// Resolve call, once per call.
	// It is a blocking delay, so scans on different (simulated) sites
	// overlap like real machines would; zero disables the model.
	ScanDelayPerEntry time.Duration
	// Telemetry is the site's observability bundle. Nil creates a private
	// bundle named after the site, so the RDM is always instrumented.
	Telemetry *telemetry.Telemetry
	// Store is the site's durable registry store. When set, its recovered
	// state is replayed into the registries and lease service during
	// assembly, its history is the site's telemetry history, and every
	// subsequent mutation is journaled through it. Nil keeps the site
	// memory-only (the pre-durability behaviour).
	Store *store.Store
	// Deploy tunes the deployment execution engine (checkpointing,
	// dedup/queue limits, retry and quarantine); the zero value uses
	// DefaultDeployLimits.
	Deploy DeployLimits
	// DeployHook is called before every build step (fault injection);
	// nil disables injection.
	DeployHook DeployHook
	// History tunes the round-robin telemetry history (sampling step,
	// retention ladder); the zero value uses the defaults. Every site keeps
	// a history.
	History HistoryConfig
	// ReplicaK is the registry replication factor: total copies of every
	// ATR/ADR/lease entry, owner included, spread over the site's peer
	// group. Registrations are acknowledged only after a write quorum
	// (⌈(K+1)/2⌉) is durable. Zero or one disables replication (the
	// pre-replication behaviour).
	ReplicaK int
	// CASBudget is the byte budget of the site's content-addressed
	// artifact store (internal/cas); zero or negative selects
	// cas.DefaultBudget. Every site keeps a store.
	CASBudget int64
}

const (
	// staleFor retains expired cache entries beyond their TTL so
	// resolution can degrade to them when peers are unreachable (breaker
	// open or retries exhausted) instead of failing.
	staleFor = 30 * time.Minute
	// skewAlarm is the clock-disagreement bound beyond which an observed
	// peer offset (sender HLC stamp vs this site's physical clock) raises
	// the skew alarm (glare_clock_skew_detected_total): wide enough to
	// absorb network latency between stamp and observation, far tighter
	// than the multi-minute skews operators must hear about.
	skewAlarm = 10 * time.Second
)

// Service is one site's GLARE RDM.
type Service struct {
	site   *site.Site
	clock  simclock.Clock
	client *transport.Client
	// hlc is the site's hybrid logical clock: the source of every ordering
	// stamp (registry LastUpdateTimes, replication mutations, blob location
	// notes), merged with peer stamps piggybacked on the wire so newest-wins
	// comparisons survive wall-clock skew. Expiry decisions stay on clock.
	hlc *hlc.Clock

	ATR    *atr.Registry
	ADR    *adr.Registry
	Leases *lease.Service
	Jobs   *gram.Manager
	FTP    *gridftp.Client

	agent      *superpeer.Agent
	localIndex *mds.Index
	groupSize  int
	scanDelay  time.Duration
	broker     *wsrf.Broker

	typeCache *cache.Cache
	depCache  *cache.Cache
	cacheOff  bool

	// degraded counts resolutions that ran with part of the VO
	// unreachable (the result set may be incomplete or stale).
	degraded *telemetry.Counter
	// skewDetected counts peer stamps that disagreed with this site's
	// physical clock beyond the alarm bound
	// (glare_clock_skew_detected_total).
	skewDetected *telemetry.Counter

	deployFiles func(url string) (*deployfile.Build, error)

	// runQueue is the request manager's run queue (Fig. 13): requests
	// currently being resolved, exposed as glare_rdm_run_queue.
	runQueue *telemetry.Gauge

	tel   *telemetry.Telemetry
	store *store.Store
	// repl is the quorum replicator (replication.go); nil when off.
	repl *replicate.Replicator

	// Telemetry history state (history.go).
	historyCfg     HistoryConfig
	history        *rrd.Store
	alerts         *rrd.Alerts
	historySamples *telemetry.Counter
	rollupPoints   *telemetry.Counter

	// Deployment execution engine state (deployrun.go).
	limits     DeployLimits
	deployHook DeployHook
	gate       *buildGate
	deployTel  deployCounters

	// Content-addressed artifact store state (artifacts.go).
	cas       *cas.Store
	casLoc    *artifactLocations
	casTel    casCounters
	casMu     sync.Mutex
	casFlight map[cas.Key]*casPull

	mu             sync.Mutex
	inflight       map[string]*buildCall         // in-flight builds by type
	resume         map[string][]store.DeployStep // checkpointed steps by type
	quarantined    map[string]*quarState         // failing types in cool-down
	buildRoots     map[string][]string           // directory roots owned by in-flight builds
	coordinatedFor int                           // community size the last election covered
	ordered        map[string]bool               // dead members whose promotion this super-peer ordered (replication.go)
	sched          *schedule                     // monitor passes (monitors.go)
	stop           chan struct{}
	stopOnce       sync.Once
}

// New assembles the service (does not start background monitors; call
// StartMonitors for that).
func New(cfg Config) (*Service, error) {
	switch {
	case cfg.Site == nil:
		return nil, fmt.Errorf("rdm: config needs a site")
	case cfg.Agent == nil:
		return nil, fmt.Errorf("rdm: config needs an overlay agent")
	case cfg.Client == nil:
		return nil, fmt.Errorf("rdm: config needs a transport client")
	case cfg.LocalIndex == nil:
		return nil, fmt.Errorf("rdm: config needs a local index")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real
	}
	broker := cfg.Agent.Broker()
	hybrid := hlc.New(cfg.Site.Attrs.Name, clock)
	agentSelf := cfg.Agent.Self()
	atrURL := agentSelf.ServiceURL(atr.ServiceName)
	adrURL := agentSelf.ServiceURL(adr.ServiceName)
	typesReg := atr.New(atrURL, clock, broker)
	depsReg := adr.New(adrURL, typesReg, clock, broker)
	ftp := gridftp.NewClient(clock, cfg.Site.Repo, gridftp.DefaultCost)
	ftp.Attach(cfg.Site)
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New(cfg.Site.Attrs.Name)
	}
	// Trace-span wall timestamps follow the site's injected clock (skew and
	// all); span durations stay real-time measurements.
	tel.SetClock(clock.Now)
	s := &Service{
		site:        cfg.Site,
		clock:       clock,
		client:      cfg.Client,
		hlc:         hybrid,
		ATR:         typesReg,
		ADR:         depsReg,
		Leases:      lease.NewService(clock),
		Jobs:        gram.NewManager(cfg.Site, clock),
		FTP:         ftp,
		agent:       cfg.Agent,
		localIndex:  cfg.LocalIndex,
		groupSize:   cfg.GroupSize,
		scanDelay:   cfg.ScanDelayPerEntry,
		broker:      broker,
		typeCache:   cache.New(clock, cfg.CacheTTL),
		depCache:    cache.New(clock, cfg.CacheTTL),
		cacheOff:    cfg.CacheDisabled,
		deployFiles: cfg.DeployFiles,
		runQueue:    tel.Gauge("glare_rdm_run_queue"),
		tel:         tel,
		limits:      cfg.Deploy.withDefaults(),
		deployHook:  cfg.DeployHook,
		inflight:    make(map[string]*buildCall),
		resume:      make(map[string][]store.DeployStep),
		quarantined: make(map[string]*quarState),
		buildRoots:  make(map[string][]string),
		ordered:     make(map[string]bool),
		stop:        make(chan struct{}),
	}
	s.sched = newSchedule(s.monitorPasses(), tel)
	s.gate = newBuildGate(s.limits.MaxConcurrent, s.limits.QueueDepth)
	s.deployTel = newDeployCounters(tel)
	// Wire the site's observability bundle through every component the RDM
	// assembles, so one /metrics page covers the whole stack.
	s.ATR.SetTelemetry(tel)
	s.ADR.SetTelemetry(tel)
	// Ordering stamps come from the hybrid logical clock: a registration
	// accepted after any message exchange orders after every stamp that
	// message carried, however skewed this site's wall clock is. Expiry
	// sweeps and lease validity stay on the site's physical clock.
	s.ATR.Home().SetStamp(hybrid.Now)
	s.ADR.Home().SetStamp(hybrid.Now)
	cfg.Agent.SetTelemetry(tel)
	for name, c := range map[string]*cache.Cache{"types": s.typeCache, "deps": s.depCache} {
		l := telemetry.L("cache", name)
		c.Instrument(tel.Counter("glare_rdm_cache_hits_total", l), tel.Counter("glare_rdm_cache_misses_total", l),
			tel.Counter("glare_rdm_cache_revived_total", l), tel.Counter("glare_rdm_cache_discarded_total", l),
			tel.Counter("glare_rdm_cache_stale_served_total", l))
		// Stale retention backs graceful degradation: when a peer is
		// down, resolution serves expired entries (marked degraded)
		// instead of failing.
		c.SetStaleFor(staleFor)
	}
	s.degraded = tel.Counter("glare_rdm_resolve_degraded_total")
	// Clock-skew surveillance: every envelope exchange lets the HLC compare
	// the sender's stamp against this site's physical clock; disagreements
	// beyond the alarm bound count on glare_clock_skew_detected_total and
	// surface in the overlay's ViewStatus (the `glarectl status` SKEW
	// column). The worst observation per peer is retained for the
	// sampler's CheckClockSkew gauges.
	s.skewDetected = tel.Counter("glare_clock_skew_detected_total")
	hybrid.SetSkewBound(skewAlarm)
	hybrid.OnSkew(func(peer string, offset time.Duration) {
		s.skewDetected.Inc()
	})
	cfg.Agent.SetSkewSource(hybrid.MaxPeerOffset)
	// Content-addressed artifact store: assembled before the durable store
	// attaches so recovery can re-offer the blobs the site held. The
	// gridftp tallies feed the same telemetry bundle.
	s.FTP.SetTelemetry(tel)
	// The CAS stamps entry Added times, which double as blob-location
	// LUTs in the anti-entropy digest — ordering fields, so they come from
	// the HLC (which also keeps LRU recency strictly monotonic).
	s.cas = cas.New(hybrid, cfg.CASBudget)
	s.casLoc = newArtifactLocations()
	s.casTel = newCASCounters(tel)
	s.casFlight = make(map[cas.Key]*casPull)
	// Telemetry history: ring archives, alert engine and /healthz digest.
	// A durable site samples into the rings its store recovered.
	s.historyCfg = cfg.History.withDefaults()
	if cfg.Store != nil {
		s.history = cfg.Store.History()
	} else {
		s.history = rrd.NewStore(s.historyCfg.Step)
	}
	s.alerts = rrd.NewAlerts(s.history, DefaultAlertRules(s.historyCfg.Step))
	s.historySamples = tel.Counter("glare_history_samples_total")
	s.rollupPoints = tel.Counter("glare_history_rollup_points_total")
	tel.SetHealthSource(s.healthSnapshot)
	// Expiry cascade: destroying a type — removal or lifetime expiry —
	// expires its deployments (§3.3) and drops it from the site's index,
	// which forwards the removal to the community index upstream.
	s.ATR.OnRemove(func(typeName string) {
		s.ADR.ExpireByType(typeName)
		s.localIndex.Unregister(typeName)
	})
	// Durability last: replay the store into the assembled registries,
	// lease service and replica holder, then bind the site journal once so
	// new traffic is logged and replicated and replay never is.
	s.setupReplication(cfg)
	if cfg.Store != nil {
		s.attachStore(cfg.Store)
	}
	s.bindJournal()
	return s, nil
}

// Site returns the underlying grid site.
func (s *Service) Site() *site.Site { return s.site }

// Telemetry returns the site's observability bundle (never nil).
func (s *Service) Telemetry() *telemetry.Telemetry { return s.tel }

// Broker returns the notification broker shared by the registries.
func (s *Service) Broker() *wsrf.Broker { return s.broker }

// Agent returns the overlay agent.
func (s *Service) Agent() *superpeer.Agent { return s.agent }

// Clock returns the service clock.
func (s *Service) Clock() simclock.Clock { return s.clock }

// HLC returns the site's hybrid logical clock. The transport layer
// piggybacks its stamps on every envelope and merges the stamps it
// receives, so any message exchange bounds inter-site divergence.
func (s *Service) HLC() *hlc.Clock { return s.hlc }

// CacheStats reports the combined type+deployment cache statistics.
func (s *Service) CacheStats() (types, deps cache.Stats) {
	return s.typeCache.Stats(), s.depCache.Stats()
}

// CachedDeployments counts the deployments in the site's cache.
func (s *Service) CachedDeployments() (n int) {
	for _, k := range s.depCache.Keys() {
		if strings.HasPrefix(k, "dep:") {
			n++
		}
	}
	return n
}

// Stop terminates background monitors and flushes/closes the durable
// store, so a clean shutdown loses nothing regardless of fsync policy.
func (s *Service) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		if s.store != nil {
			_ = s.store.Close()
		}
	})
}
