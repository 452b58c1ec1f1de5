package rdm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"glare/internal/activity"
	"glare/internal/cache"
	"glare/internal/epr"
	"glare/internal/mds"
	"glare/internal/simclock"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/xmlutil"
)

// monitorPass is one row of a site's background schedule: fn runs every
// `every` of credited time while runsOn (nil: always) admits the site.
type monitorPass struct {
	name   string
	every  time.Duration
	runsOn func() bool
	fn     func()
}

// monitorPasses is the site's schedule, in the order passes that come due
// together run: the paper's Cache Refresher, Index Monitor and Deployment
// Status Monitor (§3.2), overlay liveness and replica failover (§4),
// anti-entropy, the history sampler (which also evaluates the alert rules
// and sets the site and clock-skew gauges), the grid-wide rollup, and
// read repair.
func (s *Service) monitorPasses() []monitorPass {
	superPeer := s.agent.IsSuperPeer
	return []monitorPass{
		{"refresh", 5 * time.Second, nil, func() { s.RefreshCaches() }},
		{"index", 3 * time.Second, nil, func() { _ = s.CheckIndex() }},
		{"status", 5 * time.Second, nil, func() { s.CheckDeployments() }},
		{"liveness", 2 * time.Second, nil, func() { s.CheckLiveness() }},
		{"sync", 5 * time.Second, superPeer, s.SyncRegistries},
		{"sample", 2 * time.Second, nil, func() { s.SampleTelemetry() }},
		{"rollup", 5 * time.Second, superPeer, func() { s.RollupHistory() }},
		{"repair", 5 * time.Second, func() bool { return s.repl != nil }, func() { s.RepairReplicas() }},
	}
}

// schedule drives one site's monitor passes. A pass comes due when the
// time credited since it last came due reaches its interval. Credit is
// what a driver waited for (StartMonitors) or stepped a virtual clock by
// (AdvanceMonitors), never a reading of the site's skewable Now, so a
// clock step can neither stall nor burst the schedule.
type schedule struct {
	passes  []monitorPass
	tel     *telemetry.Telemetry
	mu      sync.Mutex
	since   []time.Duration // credit since each pass last came due
	running []bool
}

func newSchedule(passes []monitorPass, tel *telemetry.Telemetry) *schedule {
	return &schedule{passes: passes, tel: tel,
		since: make([]time.Duration, len(passes)), running: make([]bool, len(passes))}
}

// nextDue is the credit still needed before the earliest pass comes due.
func (sc *schedule) nextDue() time.Duration {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	next := time.Duration(math.MaxInt64)
	for i, p := range sc.passes {
		next = min(next, p.every-sc.since[i])
	}
	return next
}

// credit adds d to every pass and claims, marking it running, each pass
// that came due while runsOn admits the site and its last run has
// finished. A pass still running is skipped, as a ticker drops the ticks a
// slow receiver missed.
func (sc *schedule) credit(d time.Duration) (claimed []bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	claimed = make([]bool, len(sc.passes))
	for i, p := range sc.passes {
		if sc.since[i] += d; sc.since[i] < p.every {
			continue
		}
		sc.since[i] = 0
		if !sc.running[i] && (p.runsOn == nil || p.runsOn()) {
			sc.running[i], claimed[i] = true, true
		}
	}
	return claimed
}

// run runs claimed pass i, timed on glare_monitor_pass_seconds{pass}. A
// pass that panics does not take the site down: the panic is counted on
// glare_monitor_pass_panics_total{pass}, its value ends a failed
// monitor.<pass> span, and the pass runs again when it next comes due.
func (sc *schedule) run(i int) {
	name := sc.passes[i].name
	defer func() {
		if r := recover(); r != nil {
			sc.tel.Counter("glare_monitor_pass_panics_total", telemetry.L("pass", name)).Inc()
			sc.tel.StartSpan("monitor."+name, nil).End(fmt.Errorf("panic: %v", r))
		}
		sc.mu.Lock()
		sc.running[i] = false
		sc.mu.Unlock()
	}()
	start := time.Now()
	sc.passes[i].fn()
	sc.tel.Histogram("glare_monitor_pass_seconds", telemetry.L("pass", name)).Observe(time.Since(start))
}

// drive runs the schedule on clock until stop closes: it waits for each
// next due instant and starts every due pass on its own goroutine, so a
// hung call (up to transport.DefaultCallTimeout) cannot hold up the 2 s
// liveness probe behind it.
func (sc *schedule) drive(clock simclock.Clock, stop <-chan struct{}) {
	for {
		wait := sc.nextDue()
		select {
		case <-stop:
			return
		case <-clock.After(wait):
		}
		for i, claimed := range sc.credit(wait) {
			if claimed {
				go sc.run(i)
			}
		}
	}
}

// StartMonitors runs the site's monitor schedule on its clock until Stop.
func (s *Service) StartMonitors() { go s.sched.drive(s.clock, s.stop) }

// AdvanceMonitors steps a shared virtual clock d forward through advance,
// stopping at each instant a pass of one of sites comes due and running
// the due passes inline there, in schedule order and then in sites order.
func AdvanceMonitors(sites []*Service, d time.Duration, advance func(time.Duration)) {
	for d > 0 {
		step := d
		for _, s := range sites {
			step = min(step, s.sched.nextDue())
		}
		advance(step)
		d -= step
		claimed := make([][]bool, len(sites))
		for j, s := range sites {
			claimed[j] = s.sched.credit(step)
		}
		for i := 0; len(sites) > 0 && i < len(claimed[0]); i++ {
			for j, s := range sites {
				if claimed[j][i] {
					s.sched.run(i)
				}
			}
		}
	}
}

// RefreshCaches is one Cache Refresher pass over the deployment cache:
// cached deployments whose source LastUpdateTime changed are revived with
// one Get, stamped with the LUT the probe read; entries whose source is
// gone are discarded, and entries whose source is unreachable age into the
// stale window. Index entries (merged lists) and the type cache's concrete
// lists age out by TTL. Each pass runs under its own trace span, so the
// LUT probes it issues carry a correlation ID to the source sites.
func (s *Service) RefreshCaches() (revived, discarded int) {
	sp := s.tel.StartSpan("rdm.RefreshCaches", nil)
	probe := func(key string, source epr.EPR) (time.Time, error) {
		if !strings.HasPrefix(key, "dep:") {
			// Merged lists have no single source; leave them to TTL.
			return source.LastUpdateTime, nil
		}
		resp, err := s.refreshCall(sp, source, "GetLUT")
		if err != nil {
			return time.Time{}, err
		}
		return time.Parse(epr.TimeLayout, resp.Text)
	}
	resolve := func(_ string, source epr.EPR) (*xmlutil.Node, error) {
		return s.refreshCall(sp, source, "Get")
	}
	revived, discarded = s.depCache.Refresh(probe, resolve)
	sp.SetNote(fmt.Sprintf("revived=%d discarded=%d", revived, discarded))
	sp.End(nil)
	return revived, discarded
}

// errEmptyAnswer reports a call that succeeded with no answer where the
// cache refresher needs one: the entry it was checking is discarded.
var errEmptyAnswer = errors.New("rdm: empty answer")

// refreshCall makes one refresher call about a cached entry's source. An
// unreachable source is cache.ErrUnreachable, so the entry is kept for
// degraded resolution; a fault or an empty answer discards it.
func (s *Service) refreshCall(sp *telemetry.Span, source epr.EPR, op string) (*xmlutil.Node, error) {
	resp, err := s.call(context.Background(), sp, source.Address, op, xmlutil.NewNode("Name", source.Key))
	switch {
	case transport.IsUnavailable(err):
		return nil, fmt.Errorf("%w: %w", cache.ErrUnreachable, err)
	case err != nil:
		return nil, err
	case resp == nil:
		return nil, errEmptyAnswer
	}
	return resp, nil
}

// CheckLiveness is one liveness pass, the site's only failure detector:
// the overlay agent probes its super-peer, or on a super-peer every site
// in its view (superpeer.Agent.Maintain), and a replicating super-peer
// then promotes the replicas of every member those probes suspect dead.
// A member killed just before a pass is promoted by the second pass.
// Returns how many promotions the pass ordered.
func (s *Service) CheckLiveness() int {
	s.agent.Maintain()
	return s.checkReplicas()
}

// CheckIndex is one Index Monitor pass: "It periodically probes the GT4
// Default Index to see whether it is a community index or local index. A
// GLARE service on a site with [the] community index becomes super-peer
// election coordinator and notifies all other Grid sites registered in the
// community."
func (s *Service) CheckIndex() error {
	if s.localIndex.Kind() != mds.CommunityIndex {
		return nil
	}
	sites := s.CommunitySites()
	if len(sites) == 0 {
		return nil
	}
	// Coordinate once per community composition: a new site joining the
	// community index triggers a fresh election round that folds it into
	// the groups.
	s.mu.Lock()
	if len(sites) == s.coordinatedFor {
		s.mu.Unlock()
		return nil
	}
	s.coordinatedFor = len(sites)
	s.mu.Unlock()

	_, err := s.agent.Coordinate(sites, superpeer.CoordinatorConfig{GroupSize: s.groupSize})
	if err != nil {
		s.mu.Lock()
		s.coordinatedFor = 0
		s.mu.Unlock()
	}
	return err
}

// CommunitySites extracts the registered Grid sites from the community
// index's aggregated document.
func (s *Service) CommunitySites() []superpeer.SiteInfo {
	res, err := s.localIndex.QueryString("//Site")
	if err != nil {
		return nil
	}
	seen := map[string]bool{}
	var out []superpeer.SiteInfo
	for _, n := range res.Nodes {
		info, err := superpeer.SiteInfoFromXML(n)
		if err != nil || seen[info.Name] {
			continue
		}
		seen[info.Name] = true
		out = append(out, info)
	}
	return out
}

// CheckDeployments is one Deployment Status Monitor pass: sweep expired
// resources, verify every locally registered deployment still exists on
// the site (executable present, service hosted), and restore any type that
// dropped below its provider-declared deployment floor. Vanished
// deployments are unregistered and reported. A deployment that is still
// there is not written: its LastUpdateTime moves only when it changes, so
// remote caches revive it only then.
func (s *Service) CheckDeployments() (alive int, removed []string) {
	s.ATR.SweepExpired()
	s.ADR.SweepExpired()
	s.sweepQuarantine()
	for _, d := range s.ADR.All() {
		ok := true
		switch d.Kind {
		case activity.KindExecutable:
			e := s.site.FS.Stat(d.Path)
			ok = e != nil
		case activity.KindService:
			ok = s.site.HasService(d.Name)
		}
		if !ok {
			s.ADR.Remove(d.Name)
			removed = append(removed, d.Name)
			continue
		}
		alive++
	}
	s.EnforceDeploymentFloor()
	s.tel.Gauge("glare_rdm_deployments_alive").Set(int64(alive))
	return alive, removed
}

// CheckClockSkew is the sampler's clock surveillance (SampleTelemetry
// calls it): publish the worst clock offset this site has observed
// against any peer (sender HLC stamps vs the local physical clock, signed
// — positive means that peer's stamps run ahead of us) and the HLC's
// logical-counter watermark. A large offset means real skew somewhere
// (here or there); a climbing logical counter means the HLC is absorbing
// stamps from a clock ahead of ours. Returns the worst-offset peer and
// its offset.
func (s *Service) CheckClockSkew() (peer string, offset time.Duration) {
	peer, offset = s.hlc.MaxPeerOffset()
	s.tel.Gauge("glare_clock_offset_ms").Set(offset.Milliseconds())
	s.tel.Gauge("glare_clock_hlc_logical").Set(int64(s.hlc.Logical()))
	return peer, offset
}

// EnforceDeploymentFloor reinstalls types that fell below their provider's
// MinDeployments bound ("a provider can also specify minimum and maximum
// limits of deployments of an activity and the GLARE system ensures to
// fulfil the implied constraints", §3.3). Only types this site is marked
// deployed-on are restored here, so exactly one site heals each gap.
// It returns the names of the types redeployed.
func (s *Service) EnforceDeploymentFloor() []string {
	var restored []string
	for _, t := range s.ATR.Types() {
		if t.MinDeployments <= 0 || t.Abstract || t.Installation == nil ||
			t.Installation.Mode != activity.ModeOnDemand {
			continue
		}
		deployedHere := false
		for _, site := range s.ATR.DeployedOn(t.Name) {
			if site == s.site.Attrs.Name {
				deployedHere = true
			}
		}
		if !deployedHere {
			continue
		}
		if len(s.ATR.DeploymentRefs(t.Name)) >= t.MinDeployments {
			continue
		}
		if _, err := s.DeployLocal(t, MethodExpect); err == nil {
			restored = append(restored, t.Name)
		}
	}
	return restored
}
