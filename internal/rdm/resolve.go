package rdm

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
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
	c, err := s.climb(ctx, sp, typeName, nil, "")
	if err != nil {
		return nil, err
	}
	if len(c.types) == 0 {
		return nil, fmt.Errorf("rdm: no activity type matching %q in the VO", typeName)
	}
	if out := c.open.all(c.closed); len(out) > 0 {
		return out, nil
	}
	if !allowDeploy {
		return nil, fmt.Errorf("rdm: no deployments of %q and on-demand deployment disabled", typeName)
	}
	// On-demand deployment of the first installable concrete type.
	var lastErr error
	for _, ct := range c.types {
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
		report, err := s.deployOnDemand(ctx, sp, ct, method)
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
	c, err := s.climb(context.Background(), nil, typeName, nil, "")
	return c.types, err
}

// Scopes of a Resolve call: how much of the VO the answering site speaks
// for.
const (
	scopeSite  = "site"  // its own registries
	scopeGroup = "group" // its peer group; one super-peer asks another
	scopeVO    = "vo"    // the whole VO; a group member asks its super-peer
)

// A climb is one walk up the resolution ladder: local registry, cache,
// peer group, super-peer.
type climb struct {
	types  []*activity.Type
	source string                 // the rung that resolved the name
	open   found                  // deployments of the types the remote rungs serve
	closed []*activity.Deployment // deployments of the types the cache closed
}

// climb walks the ladder for name, taking listed types as resolved. The
// first rung that resolves the name fixes the concrete types; each rung is
// one round of Resolve calls about every open type. Peers whose answer
// missed a type are asked again about it, and the last rung is asked
// once, about the types the group holds no deployment of: "A super-peer
// is contacted when other peers could not find information about some
// activity types or deployments within the group."
//
// scope is empty for the site's own resolution, which alone uses the
// cache and counts its source once and, per type, degradation and the
// stale fallback. Answering a call, a site climbs no higher than its
// scope. The climb returned is never nil.
func (s *Service) climb(ctx context.Context, sp *telemetry.Span, name string, listed []*activity.Type, scope string) (*climb, error) {
	own := scope == ""
	cache := own && !s.cacheOff
	c := &climb{open: found{}}
	fix := func(types []*activity.Type, source string) {
		c.types, c.source = types, source
		for _, t := range types {
			local := s.ADR.ByType(t.Name)
			if cached, ok := s.indexed(cache, t.Name, false); ok && len(local)+len(cached) > 0 {
				c.closed = append(append(c.closed, local...), cached...)
			} else {
				c.open[t.Name] = local
			}
		}
	}
	// "It then forwards requests to other super-peers and caches the
	// results."
	adopt := func(by *ask, source string, keep bool) {
		if by != nil {
			if fix(typesFromList(by.resp), source); keep {
				s.cacheTypes(name, by.to, c.types)
			}
		}
	}
	types := listed
	if len(listed) == 0 {
		var err error
		if types, err = s.ATR.ConcreteOf(name); err != nil {
			return c, err
		}
	}
	if fix(types, "local"); len(types) == 0 && cache {
		if e, ok := s.typeCache.Get("concrete:" + name); ok {
			fix(typesFromList(e.Doc), "cache")
		}
	}
	// The remote rungs: the group peers, and the sites of the last rung
	// with the scope they are asked at. A cache hit reads no view.
	var peers, tops []superpeer.SiteInfo
	top := scopeGroup
	if scope != scopeSite && (len(c.types) == 0 || len(c.open) > 0) {
		view, self := s.view(), s.selfName()
		peers = view.Peers(self)
		switch {
		case scope == scopeVO || own && view.SuperPeer.Name == self:
			tops = superpeer.View{Group: view.SuperPeers}.Peers(self)
		case own:
			tops, top = []superpeer.SiteInfo{view.SuperPeer}, scopeVO
		case scope != scopeGroup:
			return c, fmt.Errorf("Resolve: unknown scope %q", scope)
		}
	}
	var group, super []*ask
	if len(c.types) == 0 || len(c.open) > 0 {
		group = asksTo(peers, c.open.names(false))
		adopt(s.askAll(ctx, sp, scopeSite, name, group), "peer", own)
	}
	if len(c.types) == 0 {
		super = asksTo(tops, nil)
		adopt(s.askAll(ctx, sp, top, name, super), "superpeer", true)
	}
	if len(c.types) == 0 && own && unreached(append(group, super...), name, name) {
		// Part of the VO was unreachable, so "not found" is not
		// trustworthy: an expired entry inside its revival window
		// (SetStaleFor) beats an error.
		s.degraded.Inc()
		if cache {
			if e, ok := s.typeCache.GetStale("concrete:" + name); ok {
				fix(typesFromList(e.Doc), "stale")
			}
		}
	}
	group = append(group, s.askAgain(ctx, sp, name, group, c.open.names(false))...)
	s.gather(c.open, name, group, own)
	// The last rung speaks only for the types the group holds nothing of.
	bare := c.open.names(true)
	if len(bare) == 0 {
		super = nil
	} else if super == nil {
		super = asksTo(tops, bare)
		s.askAll(ctx, sp, top, name, super)
	}
	for _, a := range super {
		a.listed = bare
	}
	s.gather(c.open, name, super, true)
	if !own || len(c.types) == 0 {
		return c, nil
	}
	s.resolveSrc(c.source).Inc()
	asks := append(group, super...)
	for t, ds := range c.open {
		// Part of the VO did not answer about t: count the degraded
		// resolution and, when nothing was found, serve stale cache
		// entries inside their revival window, marked Degraded. They are
		// not re-indexed, which would hide the degradation.
		if unreached(asks, name, t) {
			s.degraded.Inc()
			if stale, _ := s.indexed(cache && len(ds) == 0, t, true); len(stale) > 0 {
				c.open[t] = stale
				s.resolveSrc("stale").Inc()
				continue
			}
		}
		if cache && len(ds) > 0 {
			idx := xmlutil.NewNode("Index")
			for _, d := range ds {
				idx.Elem("Name", d.Name)
			}
			s.depCache.Put("index:"+t, epr.EPR{}, idx)
		}
	}
	return c, nil
}

// indexed returns, when use is set, the cached deployments typeName's
// cached index names: fresh entries or, with stale set, entries inside
// their revival window, marked Degraded. ok reports an index was there.
func (s *Service) indexed(use bool, typeName string, stale bool) (out []*activity.Deployment, ok bool) {
	if !use {
		return nil, false
	}
	get := s.depCache.Get
	if stale {
		get = s.depCache.GetStale
	}
	idx, ok := get("index:" + typeName)
	if !ok {
		return nil, false
	}
	out = make([]*activity.Deployment, 0, len(idx.Doc.Children))
	for _, n := range idx.Doc.All("Name") {
		if e, ok := get("dep:" + n.Text); ok {
			if d, err := activity.DeploymentFromXML(e.Doc); err == nil {
				d.Degraded = stale
				out = append(out, d)
			}
		}
	}
	return out, true
}

// An ask is one Resolve call and, once made, its answer.
type ask struct {
	to     superpeer.SiteInfo
	listed []string // the types asked about; none: resolve the name
	resp   *xmlutil.Node
	err    error
}

// covers reports whether the answer speaks for type t. A call that listed
// types is taken at its list. One that listed none covers the types it
// resolved the name to and the name itself, and, when it failed, any type.
func (a *ask) covers(name, t string) bool {
	switch {
	case len(a.listed) > 0:
		return slices.Contains(a.listed, t)
	case a.resp == nil:
		return a.err != nil
	}
	return t == name || slices.ContainsFunc(a.resp.Children, func(n *xmlutil.Node) bool {
		return n.Name == "ActivityTypeEntry" && n.AttrOr("name", "") == t
	})
}

// unreached reports whether a call that would have spoken for type t
// found its site unreachable, so the answer about t may be incomplete.
func unreached(asks []*ask, name, t string) bool {
	return slices.ContainsFunc(asks, func(a *ask) bool {
		return transport.IsUnavailable(a.err) && a.covers(name, t)
	})
}

// asksTo returns one ask to each site about the listed types.
func asksTo(sites []superpeer.SiteInfo, listed []string) (asks []*ask) {
	for _, site := range sites {
		if !site.IsZero() {
			asks = append(asks, &ask{to: site, listed: listed})
		}
	}
	return asks
}

// askAgain asks each peer whose answer in asks left some of types
// uncovered about those types only: a peer can hold deployments of a type
// without that type's link to an abstract name.
func (s *Service) askAgain(ctx context.Context, sp *telemetry.Span, name string, asks []*ask, types []string) []*ask {
	var again []*ask
	for _, a := range asks {
		var missing []string
		for _, t := range types {
			if a.resp != nil && !a.covers(name, t) {
				missing = append(missing, t)
			}
		}
		if len(missing) > 0 {
			again = append(again, &ask{to: a.to, listed: missing})
		}
	}
	s.askAll(ctx, sp, scopeSite, name, again)
	return again
}

// askAll makes every ask's Resolve call at scope, concurrently, and
// returns the first answer, in order, that resolved the name.
func (s *Service) askAll(ctx context.Context, sp *telemetry.Span, scope, name string, asks []*ask) *ask {
	var wg sync.WaitGroup
	for _, a := range asks {
		req := xmlutil.NewNode("Resolve").SetAttr("name", name).SetAttr("scope", scope)
		for _, t := range a.listed {
			req.Elem("Type", t)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.resp, a.err = s.call(ctx, sp, a.to.ServiceURL(ServiceName), "Resolve", req)
		}()
	}
	wg.Wait()
	for _, a := range asks {
		if a.resp != nil && a.resp.First("ActivityTypeEntry") != nil {
			return a
		}
	}
	return nil
}

// gather files the deployments the answers hold of the types f has a key
// for and the answers cover. With keep set, each is also cached under the
// site that sent it.
func (s *Service) gather(f found, name string, asks []*ask, keep bool) {
	for _, a := range asks {
		if a.resp == nil {
			continue
		}
		for _, d := range deploymentsFromList(a.resp) {
			if _, ok := f[d.Type]; ok && a.covers(name, d.Type) {
				f[d.Type] = append(f[d.Type], d)
				if keep {
					s.cacheDeployment(a.to, d)
				}
			}
		}
	}
}

// answerResolve serves a Resolve call: the concrete types the scope
// resolves the name to, only when the request listed none, and the
// deployments the scope holds of those or of the listed types; a site
// scope adds its deployments of the name itself. Unreachable sites are
// simply absent: the caller tracks its own unavailability.
func (s *Service) answerResolve(ctx context.Context, sp *telemetry.Span, req *xmlutil.Node) (*xmlutil.Node, error) {
	if req == nil {
		return nil, fmt.Errorf("Resolve: missing request")
	}
	name, scope := req.AttrOr("name", ""), req.AttrOr("scope", scopeSite)
	var listed []*activity.Type
	for _, n := range req.All("Type") {
		listed = append(listed, &activity.Type{Name: n.Text})
	}
	c, err := s.climb(ctx, sp, name, listed, scope)
	if err != nil {
		return nil, err
	}
	if _, ok := c.open[name]; !ok && scope == scopeSite {
		c.open[name] = s.ADR.ByType(name)
	}
	if scope == scopeSite && s.scanDelay > 0 {
		// Modeled container processing, once per call and proportional to
		// the registry scanned; the caller's deadline interrupts it.
		select {
		case <-time.After(time.Duration(s.ADR.Len()) * s.scanDelay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := xmlutil.NewNode("Resolved")
	if len(listed) == 0 {
		for _, t := range c.types {
			out.Add(t.ToXML())
		}
	}
	for _, d := range c.open.all(nil) {
		out.Add(d.ToXML())
	}
	return out, nil
}

// found holds deployments by concrete type; only the types it has a key
// for take any.
type found map[string][]*activity.Deployment

// names returns the types in name order; with bare set, only those
// without a deployment.
func (f found) names(bare bool) []string {
	var out []string
	for t, ds := range f {
		if !bare || len(ds) == 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// all returns first and then every deployment in f, the first copy of
// each name, in name order.
func (f found) all(first []*activity.Deployment) []*activity.Deployment {
	for _, t := range f.names(false) {
		first = append(first, f[t]...)
	}
	slices.SortStableFunc(first, func(a, b *activity.Deployment) int { return strings.Compare(a.Name, b.Name) })
	return slices.CompactFunc(first, func(a, b *activity.Deployment) bool { return a.Name == b.Name })
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

// LookupType finds a single named type in the local registry or, up the
// resolution ladder, anywhere in the VO.
func (s *Service) LookupType(name string) (*activity.Type, bool) {
	return s.lookupType(context.Background(), nil, name)
}

// lookupType is the one type lookup behind on-demand deployment, dependency
// installs, migration and DeployLocal by name. A local hit answers at once;
// otherwise one climb resolves the name, and the answer is the concrete type
// it names.
func (s *Service) lookupType(ctx context.Context, sp *telemetry.Span, name string) (*activity.Type, bool) {
	if t, ok := s.ATR.Lookup(name); ok {
		return t, true
	}
	c, _ := s.climb(ctx, sp, name, nil, "")
	i := slices.IndexFunc(c.types, func(t *activity.Type) bool { return t.Name == name })
	if i < 0 {
		return nil, false
	}
	return c.types[i], true
}
