package rdm

import (
	"context"
	"fmt"
	"strings"
	"time"

	"glare/internal/activity"
	"glare/internal/epr"
	"glare/internal/mds"
	"glare/internal/superpeer"
	"glare/internal/xmlutil"
)

// Background component intervals (real time). Tests call the single-pass
// methods directly for determinism.
const (
	cacheRefreshEvery = 5 * time.Second
	indexProbeEvery   = 3 * time.Second
	statusCheckEvery  = 5 * time.Second
	peerLivenessEvery = 2 * time.Second
	// registrySyncEvery paces the anti-entropy reconciler (SyncRegistries);
	// only super-peers act on it.
	registrySyncEvery = 5 * time.Second
	// historySampleEvery paces the telemetry-history sampler
	// (SampleTelemetry), which also evaluates the alert rules.
	historySampleEvery = 2 * time.Second
	// historyRollupEvery paces the grid-wide series consolidation
	// (RollupHistory); only super-peers act on it.
	historyRollupEvery = 5 * time.Second
	// replicaCheckEvery paces replica failure detection and promotion
	// (CheckReplicas); only super-peers act on it. Failover completes
	// within replSuspicionThreshold of these intervals plus one promotion
	// round-trip.
	replicaCheckEvery = 2 * time.Second
	// replicaRepairEvery paces read repair and promoted-data hand-off
	// (RepairReplicas); every replicating site acts on it.
	replicaRepairEvery = 5 * time.Second
	// clockSkewEvery paces the clock-skew gauge refresh (CheckClockSkew);
	// every site acts on it.
	clockSkewEvery = 5 * time.Second
)

// StartMonitors launches the Cache Refresher, Index Monitor, Deployment
// Status Monitor and super-peer liveness checks until Stop is called.
func (s *Service) StartMonitors() {
	go s.loop(cacheRefreshEvery, func() { s.RefreshCaches() })
	go s.loop(indexProbeEvery, func() { s.CheckIndex() })
	go s.loop(statusCheckEvery, func() { s.CheckDeployments() })
	s.agent.StartMonitor(peerLivenessEvery, s.stop)
	go s.loop(registrySyncEvery, func() {
		if s.agent.IsSuperPeer() {
			s.SyncRegistries()
		}
	})
	go s.loop(historySampleEvery, func() { s.SampleTelemetry() })
	go s.loop(historyRollupEvery, func() {
		if s.agent.IsSuperPeer() {
			s.RollupHistory()
		}
	})
	if s.repl != nil {
		go s.loop(replicaCheckEvery, func() {
			if s.agent.IsSuperPeer() {
				s.CheckReplicas()
			}
		})
	}
	if s.repl != nil {
		go s.loop(replicaRepairEvery, func() { s.RepairReplicas() })
	}
	go s.loop(clockSkewEvery, func() { s.CheckClockSkew() })
}

func (s *Service) loop(interval time.Duration, fn func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			fn()
		}
	}
}

// RefreshCaches is one Cache Refresher pass: cached deployments and types
// whose source LastUpdateTime changed are revived; entries whose source is
// gone are discarded. Index-style entries (merged lists) age out by TTL.
// Each pass runs under its own trace span, so the LUT probes it issues
// carry a correlation ID to the source sites.
func (s *Service) RefreshCaches() (revived, discarded int) {
	sp := s.tel.StartSpan("rdm.RefreshCaches", nil)
	probe := func(key string, source epr.EPR) (time.Time, error) {
		switch {
		case strings.HasPrefix(key, "dep:"), strings.HasPrefix(key, "type:"):
			return s.probeLUT(context.Background(), sp, source.Address, source.Key)
		default:
			// Merged lists have no single source; leave them to TTL.
			return source.LastUpdateTime, nil
		}
	}
	resolve := func(key string, source epr.EPR) (epr.EPR, *xmlutil.Node, error) {
		op := "Get"
		if strings.HasPrefix(key, "type:") {
			op = "GetType"
		}
		resp, err := s.call(context.Background(), sp, source.Address, op, xmlutil.NewNode("Name", source.Key))
		if err != nil {
			return epr.EPR{}, nil, err
		}
		lut, err := s.probeLUT(context.Background(), sp, source.Address, source.Key)
		if err != nil {
			return epr.EPR{}, nil, err
		}
		fresh := source
		fresh.LastUpdateTime = lut
		return fresh, resp, nil
	}
	r1, d1 := s.depCache.Refresh(probe, resolve)
	r2, d2 := s.typeCache.Refresh(probe, resolve)
	revived, discarded = r1+r2, d1+d2
	sp.SetNote(fmt.Sprintf("revived=%d discarded=%d", revived, discarded))
	sp.End(nil)
	return revived, discarded
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

// CheckDeployments is one Deployment Status Monitor pass: verify every
// locally registered deployment still exists on the site (executable
// present, service hosted), refresh its LastUpdateTime, sweep expired
// resources, and restore any type that dropped below its provider-declared
// deployment floor. Vanished deployments are unregistered and reported.
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
		// Touch the resource: its LUT drives cache revival elsewhere.
		_ = s.ADR.UpdateMetrics(d.Name, d.Metrics)
	}
	s.EnforceDeploymentFloor()
	s.tel.Gauge("glare_rdm_deployments_alive").Set(int64(alive))
	return alive, removed
}

// CheckClockSkew is one clock-surveillance pass: publish the worst clock
// offset this site has observed against any peer (sender HLC stamps vs the
// local physical clock, signed — positive means that peer's stamps run
// ahead of us) and the HLC's logical-counter watermark. A large offset
// means real skew somewhere (here or there); a climbing logical counter
// means the HLC is absorbing stamps from a clock ahead of ours. Returns
// the worst-offset peer and its offset.
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
