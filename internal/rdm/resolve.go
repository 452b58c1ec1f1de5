package rdm

import (
	"context"
	"fmt"
	"sort"
	"time"

	"glare/internal/activity"
	"glare/internal/adr"
	"glare/internal/atr"
	"glare/internal/epr"
	"glare/internal/store"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/xmlutil"
)

// call issues a traced RPC to a remote site: the span's correlation ID
// rides the envelope's Trace header, so the remote server's spans link
// back to this request, and the context's remaining deadline budget is
// stamped into the envelope so every forwarding hop works against the
// original caller's clock. A nil span degrades to a plain call.
func (s *Service) call(ctx context.Context, sp *telemetry.Span, address, operation string, body *xmlutil.Node) (*xmlutil.Node, error) {
	return s.client.CallCtx(ctx, sp, address, operation, body)
}

// resolveSrc counts which tier of the resolution ladder answered a lookup:
// local registry, cache, peer group, or super-peer overlay.
func (s *Service) resolveSrc(source string) *telemetry.Counter {
	return s.tel.Counter("glare_rdm_resolve_total", telemetry.L("source", source))
}

// RegisterType registers an activity type with the local GLARE service and
// aggregates it into the site's index. "Notice that the registration of an
// activity type is done only on a single Grid site, and GLARE takes care
// of distributing and deploying it on other sites on-demand."
func (s *Service) RegisterType(t *activity.Type) (epr.EPR, error) {
	e, err := s.ATR.Register(t)
	if err != nil {
		return epr.EPR{}, err
	}
	// Quorum gate: the local write already fanned out through the wrapped
	// journal; the client is only acknowledged once enough replicas
	// journaled the copy that the registration survives this site's
	// permanent loss.
	if s.repl != nil {
		if qerr := s.repl.AwaitQuorum(store.RegATR, t.Name); qerr != nil {
			return epr.EPR{}, fmt.Errorf("rdm: type %q registered locally but not quorum-replicated: %w", t.Name, qerr)
		}
	}
	s.localIndex.Register(e, t.ToXML())
	return e, nil
}

// RegisterDeployment registers an existing deployment (e.g. pre-installed
// software an administrator wants to expose) with the local registries.
func (s *Service) RegisterDeployment(d *activity.Deployment) (epr.EPR, error) {
	if d.Site == "" {
		d.Site = s.site.Attrs.Name
	}
	e, err := s.ADR.Register(d)
	if err != nil {
		return epr.EPR{}, err
	}
	if s.repl != nil {
		if qerr := s.repl.AwaitQuorum(store.RegADR, d.Name); qerr != nil {
			return epr.EPR{}, fmt.Errorf("rdm: deployment %q registered locally but not quorum-replicated: %w", d.Name, qerr)
		}
	}
	return e, nil
}

// GetDeployments is the Request Manager's client entry point (Example 3):
// resolve the activity type (anywhere in the hierarchy), locate its
// deployments across the VO, and — when none exist and the type supports
// it — deploy on demand. The returned deployments are ready for selection
// by a scheduler.
func (s *Service) GetDeployments(typeName string, method Method, allowDeploy bool) ([]*activity.Deployment, error) {
	return s.GetDeploymentsCtx(context.Background(), nil, typeName, method, allowDeploy)
}

// GetDeploymentsCtx is the fullest entry point: ctx carries the caller's
// propagated deadline, so a resolution forwarded across sites works
// against the remaining budget rather than each hop's own timeout, and
// parent — the server-side span of the incoming call, or nil for a fresh
// trace — makes the whole VO-wide resolution share one correlation ID.
func (s *Service) GetDeploymentsCtx(ctx context.Context, parent *telemetry.Span, typeName string, method Method, allowDeploy bool) ([]*activity.Deployment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := s.tel.StartSpan("rdm.GetDeployments", parent)
	sp.SetNote(typeName)
	s.runQueue.Inc()
	defer s.runQueue.DecFloor()
	out, err := s.getDeployments(ctx, sp, typeName, method, allowDeploy)
	sp.End(err)
	return out, err
}

func (s *Service) getDeployments(ctx context.Context, sp *telemetry.Span, typeName string, method Method, allowDeploy bool) ([]*activity.Deployment, error) {
	concrete, err := s.resolveConcrete(ctx, sp, typeName)
	if err != nil {
		return nil, err
	}
	if len(concrete) == 0 {
		return nil, fmt.Errorf("rdm: no activity type matching %q in the VO", typeName)
	}
	var out []*activity.Deployment
	for _, ct := range concrete {
		out = append(out, s.resolveDeployments(ctx, sp, ct.Name)...)
	}
	if len(out) > 0 {
		return dedupeDeployments(out), nil
	}
	if !allowDeploy {
		return nil, fmt.Errorf("rdm: no deployments of %q and on-demand deployment disabled", typeName)
	}
	// On-demand deployment of the first installable concrete type.
	var lastErr error
	for _, ct := range concrete {
		if ct.Installation == nil {
			continue
		}
		if ct.Installation.Mode == activity.ModeManual {
			s.site.NotifyAdmin(
				fmt.Sprintf("manual installation required: %s", ct.Name),
				fmt.Sprintf("activity type %s requires manual deployment; see provider deploy-file %s",
					ct.Name, ct.Installation.DeployFileURL))
			lastErr = fmt.Errorf("rdm: type %q is manual-install; administrator notified", ct.Name)
			continue
		}
		report, err := s.deployOnDemand(ctx, sp, ct.Name, method)
		if err != nil {
			lastErr = err
			continue
		}
		return report.Deployments, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, fmt.Errorf("rdm: no deployments of %q and no installable concrete type", typeName)
}

// ResolveConcrete resolves a type name (abstract or concrete, per Fig. 2)
// to concrete types, looking successively at the local registry, the local
// cache, the peer group, and — through the super-peer — the wider VO.
func (s *Service) ResolveConcrete(typeName string) ([]*activity.Type, error) {
	return s.resolveConcrete(context.Background(), nil, typeName)
}

func (s *Service) resolveConcrete(ctx context.Context, sp *telemetry.Span, typeName string) ([]*activity.Type, error) {
	// 1. Local hierarchy (hash lookup + subtype closure).
	local, err := s.ATR.ConcreteOf(typeName)
	if err != nil {
		return nil, err
	}
	if len(local) > 0 {
		s.resolveSrc("local").Inc()
		return local, nil
	}
	// 2. Cache.
	if !s.cacheOff {
		if e, ok := s.typeCache.Get("concrete:" + typeName); ok {
			s.resolveSrc("cache").Inc()
			return typesFromList(e.Doc), nil
		}
	}
	// 3. Peer group (peer-to-peer interaction within the group).
	view := s.view()
	unreachable := false
	for _, peer := range view.Peers(s.selfName()) {
		types, err := s.remoteConcreteOf(ctx, sp, peer, typeName)
		if transport.IsUnavailable(err) {
			unreachable = true
		}
		if len(types) > 0 {
			s.cacheTypes(typeName, peer, types)
			s.resolveSrc("peer").Inc()
			return types, nil
		}
	}
	// 4. Super-peer forwarding ("A super-peer is contacted when other
	// peers could not find information ... It then forwards requests to
	// other super-peers and caches the results").
	types, err := s.forwardConcreteOf(ctx, sp, typeName)
	if transport.IsUnavailable(err) {
		unreachable = true
	}
	if len(types) > 0 {
		s.resolveSrc("superpeer").Inc()
		return types, nil
	}
	// 5. Degraded: part of the VO was unreachable, so "not found" is not
	// trustworthy — an expired cache entry beats an error. The revival
	// window (SetStaleFor) bounds how old an answer we are willing to
	// serve.
	if unreachable {
		s.degraded.Inc()
		if !s.cacheOff {
			if e, ok := s.typeCache.GetStale("concrete:" + typeName); ok {
				s.resolveSrc("stale").Inc()
				return typesFromList(e.Doc), nil
			}
		}
	}
	return nil, nil
}

// remoteConcreteOf asks one remote RDM for its local concrete resolution.
// An Unavailable error means the peer could not be reached (as opposed to
// not knowing the type) and feeds the caller's degradation decision.
func (s *Service) remoteConcreteOf(ctx context.Context, sp *telemetry.Span, target superpeer.SiteInfo, typeName string) ([]*activity.Type, error) {
	if target.IsZero() {
		return nil, nil
	}
	resp, err := s.call(ctx, sp, target.ServiceURL(ServiceName), "ConcreteOf",
		xmlutil.NewNode("Name", typeName))
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, nil
	}
	return typesFromList(resp), nil
}

// forwardConcreteOf routes the lookup through the super-peer overlay.
func (s *Service) forwardConcreteOf(ctx context.Context, sp *telemetry.Span, typeName string) ([]*activity.Type, error) {
	view := s.view()
	if view.SuperPeer.IsZero() {
		return nil, nil
	}
	if view.SuperPeer.Name == s.selfName() {
		// We are the super-peer: fan out to the other super-peers' groups.
		return s.superFanOut(ctx, sp, typeName)
	}
	resp, err := s.call(ctx, sp, view.SuperPeer.ServiceURL(ServiceName), "ForwardConcreteOf",
		xmlutil.NewNode("Name", typeName))
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, nil
	}
	types := typesFromList(resp)
	if len(types) > 0 {
		s.cacheTypes(typeName, view.SuperPeer, types)
	}
	return types, nil
}

// superFanOut is the super-peer side of type forwarding: ask every other
// super-peer to answer from its group, cache what comes back. When no
// answer is found and at least one super-peer was unreachable, the
// returned error reports that the miss is untrustworthy.
func (s *Service) superFanOut(ctx context.Context, sp *telemetry.Span, typeName string) ([]*activity.Type, error) {
	view := s.view()
	var lastUnavailable error
	for _, peer := range view.SuperPeers {
		if peer.Name == s.selfName() {
			continue
		}
		resp, err := s.call(ctx, sp, peer.ServiceURL(ServiceName), "GroupConcreteOf",
			xmlutil.NewNode("Name", typeName))
		if err != nil {
			if transport.IsUnavailable(err) {
				lastUnavailable = err
			}
			continue
		}
		if resp == nil {
			continue
		}
		if types := typesFromList(resp); len(types) > 0 {
			s.cacheTypes(typeName, peer, types)
			return types, nil
		}
	}
	return nil, lastUnavailable
}

// groupConcreteOf answers a forwarded lookup from this super-peer's group:
// our own registry plus every group member's.
func (s *Service) groupConcreteOf(ctx context.Context, sp *telemetry.Span, typeName string) []*activity.Type {
	local, err := s.ATR.ConcreteOf(typeName)
	if err == nil && len(local) > 0 {
		return local
	}
	view := s.view()
	for _, peer := range view.Peers(s.selfName()) {
		if types, _ := s.remoteConcreteOf(ctx, sp, peer, typeName); len(types) > 0 {
			return types
		}
	}
	return nil
}

// resolveDeployments collects the deployments of a concrete type from the
// whole VO: local registry, cache, peer group, super-peer fan-out. Results
// are merged (Fig. 12 spreads deployments across sites and expects the
// full list back).
func (s *Service) resolveDeployments(ctx context.Context, sp *telemetry.Span, typeName string) []*activity.Deployment {
	merged := map[string]*activity.Deployment{}
	for _, d := range s.ADR.ByType(typeName) {
		merged[d.Name] = d
	}
	// Cache: a per-type index of deployment names, each name its own
	// cached entry (so LUT-based revival works per deployment).
	if !s.cacheOff {
		if idx, ok := s.depCache.Get("index:" + typeName); ok {
			for _, n := range idx.Doc.All("Name") {
				if e, ok := s.depCache.Get("dep:" + n.Text); ok {
					if d, err := activity.DeploymentFromXML(e.Doc); err == nil {
						if _, dup := merged[d.Name]; !dup {
							merged[d.Name] = d
						}
					}
				}
			}
			if len(merged) > 0 {
				return sortedDeployments(merged)
			}
		}
	}
	// Peer group — queried concurrently: with deployments spread across k
	// sites each registry scans only its share, so the wall-clock cost of
	// one request drops as k grows (the Fig. 12 effect).
	view := s.view()
	answers, unreachable := s.fanOutDeployments(ctx, sp, view.Peers(s.selfName()), typeName)
	for peer, ds := range answers {
		for _, d := range ds {
			if _, dup := merged[d.Name]; !dup {
				merged[d.Name] = d
				s.cacheDeployment(peer, d)
			}
		}
	}
	// Super-peer fan-out — only on a group-wide miss: "A super-peer is
	// contacted when other peers could not find information about some
	// activity types or deployments within the group."
	if len(merged) == 0 {
		ds, err := s.forwardDeployments(ctx, sp, typeName)
		if transport.IsUnavailable(err) {
			unreachable = true
		}
		for _, d := range ds {
			if _, dup := merged[d.Name]; !dup {
				merged[d.Name] = d
			}
		}
	}
	staleServed := false
	if unreachable {
		// Part of the VO did not answer: the merged set may be missing
		// that part's deployments. Count the degraded resolution and, when
		// we would otherwise return nothing, fall back to stale cache
		// entries past their revival window, marked so schedulers can
		// prefer fresh alternatives.
		s.degraded.Inc()
		if len(merged) == 0 && !s.cacheOff {
			if idx, ok := s.depCache.GetStale("index:" + typeName); ok {
				for _, n := range idx.Doc.All("Name") {
					e, ok := s.depCache.GetStale("dep:" + n.Text)
					if !ok {
						continue
					}
					if d, err := activity.DeploymentFromXML(e.Doc); err == nil {
						d.Degraded = true
						if _, dup := merged[d.Name]; !dup {
							merged[d.Name] = d
						}
					}
				}
			}
			if len(merged) > 0 {
				s.resolveSrc("stale").Inc()
				staleServed = true
			}
		}
	}
	out := sortedDeployments(merged)
	// Do not re-index a stale-served result: that would stamp outdated
	// data as fresh and hide the degradation from the next resolution.
	if !s.cacheOff && len(out) > 0 && !staleServed {
		idx := xmlutil.NewNode("Index")
		for _, d := range out {
			idx.Elem("Name", d.Name)
		}
		s.depCache.Put("index:"+typeName, epr.EPR{}, idx)
	}
	return out
}

// remoteDeployments asks one peer for its local deployments. An
// Unavailable error distinguishes a dead peer from one with nothing to
// offer.
func (s *Service) remoteDeployments(ctx context.Context, sp *telemetry.Span, target superpeer.SiteInfo, typeName string) ([]*activity.Deployment, error) {
	if target.IsZero() {
		return nil, nil
	}
	resp, err := s.call(ctx, sp, target.ServiceURL(ServiceName), "LocalDeployments",
		xmlutil.NewNode("Type", typeName))
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, nil
	}
	return deploymentsFromList(resp), nil
}

func (s *Service) forwardDeployments(ctx context.Context, sp *telemetry.Span, typeName string) ([]*activity.Deployment, error) {
	view := s.view()
	if view.SuperPeer.IsZero() {
		return nil, nil
	}
	if view.SuperPeer.Name == s.selfName() {
		var out []*activity.Deployment
		var lastUnavailable error
		for _, peer := range view.SuperPeers {
			if peer.Name == s.selfName() {
				continue
			}
			resp, err := s.call(ctx, sp, peer.ServiceURL(ServiceName), "GroupDeployments",
				xmlutil.NewNode("Type", typeName))
			if err != nil {
				if transport.IsUnavailable(err) {
					lastUnavailable = err
				}
				continue
			}
			if resp == nil {
				continue
			}
			for _, d := range deploymentsFromList(resp) {
				out = append(out, d)
				s.cacheDeployment(peer, d)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
		return nil, lastUnavailable
	}
	resp, err := s.call(ctx, sp, view.SuperPeer.ServiceURL(ServiceName), "ForwardDeployments",
		xmlutil.NewNode("Type", typeName))
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, nil
	}
	out := deploymentsFromList(resp)
	for _, d := range out {
		s.cacheDeployment(view.SuperPeer, d)
	}
	return out, nil
}

// groupDeployments answers a forwarded deployment lookup from this
// super-peer's whole group, fanning out to the members concurrently.
func (s *Service) groupDeployments(ctx context.Context, sp *telemetry.Span, typeName string) []*activity.Deployment {
	merged := map[string]*activity.Deployment{}
	for _, d := range s.ADR.ByType(typeName) {
		merged[d.Name] = d
	}
	view := s.view()
	answers, _ := s.fanOutDeployments(ctx, sp, view.Peers(s.selfName()), typeName)
	for _, ds := range answers {
		for _, d := range ds {
			if _, dup := merged[d.Name]; !dup {
				merged[d.Name] = d
			}
		}
	}
	return sortedDeployments(merged)
}

// fanOutDeployments queries several remote registries concurrently. It
// additionally reports whether any peer was unreachable, so the caller
// knows the merged answer may be incomplete.
func (s *Service) fanOutDeployments(ctx context.Context, sp *telemetry.Span, peers []superpeer.SiteInfo, typeName string) (map[superpeer.SiteInfo][]*activity.Deployment, bool) {
	out := make(map[superpeer.SiteInfo][]*activity.Deployment, len(peers))
	if len(peers) == 0 {
		return out, false
	}
	type answer struct {
		peer superpeer.SiteInfo
		ds   []*activity.Deployment
		err  error
	}
	ch := make(chan answer, len(peers))
	for _, peer := range peers {
		go func(p superpeer.SiteInfo) {
			ds, err := s.remoteDeployments(ctx, sp, p, typeName)
			ch <- answer{peer: p, ds: ds, err: err}
		}(peer)
	}
	unreachable := false
	for range peers {
		a := <-ch
		if transport.IsUnavailable(a.err) {
			unreachable = true
		}
		if len(a.ds) > 0 {
			out[a.peer] = a.ds
		}
	}
	return out, unreachable
}

// ----------------------------------------------------------- cache plumbing

func (s *Service) cacheTypes(queryName string, source superpeer.SiteInfo, types []*activity.Type) {
	if s.cacheOff {
		return
	}
	list := xmlutil.NewNode("Types")
	for _, t := range types {
		list.Add(t.ToXML())
	}
	src := epr.New(source.ServiceURL(atr.ServiceName), atr.KeyName, queryName)
	src.LastUpdateTime = s.clock.Now()
	s.typeCache.Put("concrete:"+queryName, src, list)
}

func (s *Service) cacheDeployment(source superpeer.SiteInfo, d *activity.Deployment) {
	if s.cacheOff {
		return
	}
	src := epr.New(source.ServiceURL(adr.ServiceName), adr.KeyName, d.Name)
	src.LastUpdateTime = s.clock.Now()
	s.depCache.Put("dep:"+d.Name, src, d.ToXML())
}

// ----------------------------------------------------------------- helpers

func (s *Service) selfName() string { return s.agent.Self().Name }

func (s *Service) view() superpeer.View { return s.agent.View() }

func typesFromList(list *xmlutil.Node) []*activity.Type {
	var out []*activity.Type
	for _, n := range list.All("ActivityTypeEntry") {
		if t, err := activity.TypeFromXML(n); err == nil {
			out = append(out, t)
		}
	}
	return out
}

func deploymentsFromList(list *xmlutil.Node) []*activity.Deployment {
	var out []*activity.Deployment
	for _, n := range list.All("ActivityDeployment") {
		if d, err := activity.DeploymentFromXML(n); err == nil {
			out = append(out, d)
		}
	}
	return out
}

func sortedDeployments(m map[string]*activity.Deployment) []*activity.Deployment {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*activity.Deployment, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

func dedupeDeployments(in []*activity.Deployment) []*activity.Deployment {
	m := map[string]*activity.Deployment{}
	for _, d := range in {
		if _, dup := m[d.Name]; !dup {
			m[d.Name] = d
		}
	}
	return sortedDeployments(m)
}

// LookupType finds a single named type locally, in cache, or remotely.
func (s *Service) LookupType(name string) (*activity.Type, bool) {
	return s.lookupType(context.Background(), nil, name)
}

func (s *Service) lookupType(ctx context.Context, sp *telemetry.Span, name string) (*activity.Type, bool) {
	if t, ok := s.ATR.Lookup(name); ok {
		return t, true
	}
	if !s.cacheOff {
		if e, ok := s.typeCache.Get("type:" + name); ok {
			if t, err := activity.TypeFromXML(e.Doc); err == nil {
				return t, true
			}
		}
	}
	view := s.view()
	targets := view.Peers(s.selfName())
	if !view.SuperPeer.IsZero() && view.SuperPeer.Name != s.selfName() {
		targets = append(targets, view.SuperPeer)
	}
	for _, peer := range targets {
		resp, err := s.call(ctx, sp, peer.ServiceURL(atr.ServiceName), "GetType",
			xmlutil.NewNode("Name", name))
		if err != nil || resp == nil {
			continue
		}
		t, err := activity.TypeFromXML(resp)
		if err != nil {
			continue
		}
		if !s.cacheOff {
			src := epr.New(peer.ServiceURL(atr.ServiceName), atr.KeyName, name)
			src.LastUpdateTime = s.clock.Now()
			s.typeCache.Put("type:"+name, src, resp.Clone())
		}
		return t, true
	}
	return nil, false
}

// probeLUT fetches the current LastUpdateTime of a remote resource for the
// cache refresher.
func (s *Service) probeLUT(ctx context.Context, sp *telemetry.Span, service string, key string) (time.Time, error) {
	resp, err := s.call(ctx, sp, service, "GetLUT", xmlutil.NewNode("Name", key))
	if err != nil {
		return time.Time{}, err
	}
	return time.Parse(epr.TimeLayout, resp.Text)
}
