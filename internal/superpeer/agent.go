package superpeer

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

// ServiceName is the transport mount point of the overlay agent.
const ServiceName = "PeerService"

// Role is a site's position in the overlay.
type Role int

const (
	RoleUnassigned Role = iota
	RoleMember
	RoleSuperPeer
)

// String renders the role name.
func (r Role) String() string {
	switch r {
	case RoleMember:
		return "Member"
	case RoleSuperPeer:
		return "SuperPeer"
	}
	return "Unassigned"
}

// Agent is one site's overlay participant. It serves the PeerService
// operations and runs the election-coordinator and failure-recovery
// protocols.
type Agent struct {
	self        SiteInfo
	client      *transport.Client
	broker      *wsrf.Broker
	pingTimeout time.Duration

	// Overlay instrumentation; nil (no-op) until SetTelemetry is called.
	tel            *telemetry.Telemetry
	elections      *telemetry.Counter
	heartbeats     *telemetry.Counter
	recoveries     *telemetry.Counter
	takeovers      *telemetry.Counter
	abdications    *telemetry.Counter
	propagateFails *telemetry.Counter
	staleRejects   *telemetry.Counter
	rivals         *telemetry.Counter
	epochGauge     *telemetry.Gauge

	mu   sync.Mutex
	role Role
	view View
	// bestCommunity is the strength of the strongest community whose
	// coordinator this agent acknowledged; used to arbitrate between
	// notifications from multiple indices. It lives only for the current
	// election window — installing a view resets it.
	bestCommunity int
	// misses counts, per peer, the consecutive liveness-pass probes it
	// left unanswered: a member's Ping of its super-peer, a super-peer's
	// ViewStatus probes of its view. A peer is suspected dead only at
	// DefaultSuspicionThreshold, so one dropped packet under chaos neither
	// triggers an election storm nor promotes a live member's replicas.
	misses map[string]int
	// replicaK is this site's configured registry replication factor; the
	// election coordinator stamps it into every view it assigns, so the
	// whole overlay agrees on one K per epoch.
	replicaK int
	// skewSource reports the worst clock-skew observation this site has
	// made against any peer (peer name, signed offset); nil hides the
	// ViewStatus skew columns. Set during site assembly.
	skewSource func() (string, time.Duration)
}

// DefaultPingTimeout bounds one liveness probe. Failure detection must be
// far snappier than a regular operation: a hung site should be declared
// dead well before the transport's DefaultCallTimeout would give up on a
// normal call.
const DefaultPingTimeout = 1 * time.Second

// DefaultSuspicionThreshold is how many consecutive missed liveness
// probes declare a peer dead.
const DefaultSuspicionThreshold = 2

// NewAgent creates an overlay agent for a site. Every installed view is
// published on broker under wsrf.TopicElection; broker is required and
// should be the site's own, so its subscribers hear elections.
func NewAgent(self SiteInfo, client *transport.Client, broker *wsrf.Broker) *Agent {
	return &Agent{self: self, client: client, broker: broker,
		pingTimeout: DefaultPingTimeout, misses: map[string]int{}}
}

// SetReplicaK declares the registry replication factor this site wants
// (total copies per entry, owner included). The value only takes effect
// grid-wide when this site coordinates an election: the assigned views
// carry it, and takeovers and merges preserve it. Call during site
// assembly.
func (a *Agent) SetReplicaK(k int) {
	if k < 0 {
		k = 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.replicaK = k
}

// SetSkewSource wires the probe behind the ViewStatus skew columns: fn
// reports the peer with the largest observed clock offset against this
// site's physical clock, and that offset (positive: the peer's stamps run
// ahead of us). Call during site assembly.
func (a *Agent) SetSkewSource(fn func() (string, time.Duration)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.skewSource = fn
}

// Self returns this agent's site info.
func (a *Agent) Self() SiteInfo { return a.self }

// Broker returns the broker the agent publishes election notifications on.
func (a *Agent) Broker() *wsrf.Broker { return a.broker }

// SetTelemetry binds the agent's overlay instrumentation to a site's
// telemetry bundle. Call during site assembly, before serving traffic.
func (a *Agent) SetTelemetry(tel *telemetry.Telemetry) {
	a.tel = tel
	a.elections = tel.Counter("glare_superpeer_elections_total")
	a.heartbeats = tel.Counter("glare_superpeer_heartbeats_total")
	a.recoveries = tel.Counter("glare_superpeer_recoveries_total")
	a.takeovers = tel.Counter("glare_superpeer_takeovers_total")
	a.abdications = tel.Counter("glare_superpeer_abdications_total")
	a.propagateFails = tel.Counter("glare_superpeer_view_propagate_failures_total")
	a.staleRejects = tel.Counter("glare_superpeer_stale_view_rejected_total")
	a.rivals = tel.Counter("glare_superpeer_rivals_detected_total")
	a.epochGauge = tel.Gauge("glare_superpeer_epoch")
}

// Role returns the current overlay role.
func (a *Agent) Role() Role {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.role
}

// IsSuperPeer reports whether the agent currently acts as a super-peer —
// the gate for super-peer-only background passes (registry anti-entropy,
// telemetry-history rollup).
func (a *Agent) IsSuperPeer() bool { return a.Role() == RoleSuperPeer }

// View returns a copy of the current overlay view.
func (a *Agent) View() View {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.view.Clone()
}

// setView installs a view behind the epoch fence: a view that compares
// strictly older than the current one (by epoch, then super-peer rank and
// name) is rejected, so a partitioned-away coordinator cannot roll the
// overlay back. Returns whether the view was installed.
func (a *Agent) setView(v View) bool {
	a.mu.Lock()
	if !a.view.SuperPeer.IsZero() && v.OlderThan(a.view) {
		a.mu.Unlock()
		a.staleRejects.Inc()
		return false
	}
	wasSuper := a.role == RoleSuperPeer
	a.view = v
	// An installed view closes the election window: the smaller-community
	// commitment arbitrated between rival coordinators of THIS round and
	// must not veto future rounds (a community that grows by one site
	// notifies with a larger strength, which a stale commitment would
	// reject forever).
	a.bestCommunity = 0
	if v.SuperPeer.Name == a.self.Name {
		a.role = RoleSuperPeer
	} else {
		a.role = RoleMember
	}
	if wasSuper && a.role != RoleSuperPeer {
		a.abdications.Inc()
	}
	a.mu.Unlock()
	a.epochGauge.Set(int64(v.Epoch))
	a.broker.Publish(wsrf.TopicElection, a.self.Name, v.ToXML())
	return true
}

// Mount exposes the PeerService operations.
func (a *Agent) Mount(srv *transport.Server) {
	srv.RegisterService(ServiceName, map[string]transport.Handler{
		"Ping": func(*xmlutil.Node) (*xmlutil.Node, error) {
			n := xmlutil.NewNode("Pong")
			n.SetAttr("name", a.self.Name)
			n.SetAttr("rank", strconv.FormatUint(a.self.Rank, 10))
			n.SetAttr("role", a.Role().String())
			return n, nil
		},
		"ElectNotify":     a.handleElectNotify,
		"GroupAssign":     a.handleGroupAssign,
		"CandidateNotify": a.handleCandidateNotify,
		"VerifyRequest":   a.handleVerifyRequest,
		"Takeover":        a.handleTakeover,
		"ViewStatus":      a.handleViewStatus,
		"Rejoin":          a.handleRejoin,
	})
}

// handleElectNotify processes the coordinator's two-round notification.
// Round 1 is informational; round 2 must be acknowledged. When multiple
// coordinators (multiple community indices) notify, the message from the
// smaller community is the one acknowledged, per the paper.
func (a *Agent) handleElectNotify(body *xmlutil.Node) (*xmlutil.Node, error) {
	if body == nil {
		return nil, fmt.Errorf("ElectNotify: missing body")
	}
	round, _ := strconv.Atoi(body.AttrOr("round", "1"))
	strength, _ := strconv.Atoi(body.AttrOr("communitySize", "0"))
	a.mu.Lock()
	defer a.mu.Unlock()
	if round < 2 {
		if a.bestCommunity == 0 || strength < a.bestCommunity {
			a.bestCommunity = strength
		}
		return xmlutil.NewNode("Noted"), nil
	}
	// Second round: acknowledge only the chosen community, and only a
	// coordinator whose election would move our view forward — a
	// coordinator re-emerging from the stale side of a partition carries
	// an epoch at or below the one we already hold.
	if ep, err := strconv.ParseUint(body.AttrOr("epoch", "0"), 10, 64); err == nil && ep > 0 && ep <= a.view.Epoch {
		return nil, fmt.Errorf("ElectNotify: stale election epoch %d (local view at %d)", ep, a.view.Epoch)
	}
	if a.bestCommunity != 0 && strength > a.bestCommunity {
		return nil, fmt.Errorf("ElectNotify: already committed to community of %d sites", a.bestCommunity)
	}
	ack := xmlutil.NewNode("Ack")
	ack.SetAttr("name", a.self.Name)
	ack.SetAttr("rank", strconv.FormatUint(a.self.Rank, 10))
	return ack, nil
}

func (a *Agent) handleGroupAssign(body *xmlutil.Node) (*xmlutil.Node, error) {
	v, err := ViewFromXML(body)
	if err != nil {
		return nil, err
	}
	if !v.Member(a.self.Name) {
		return nil, fmt.Errorf("GroupAssign: %s is not in the assigned group", a.self.Name)
	}
	if !a.setView(v) {
		return nil, fmt.Errorf("GroupAssign: view (epoch %d) is older than the installed one", v.Epoch)
	}
	return xmlutil.NewNode("Assigned"), nil
}

// observe records one liveness-pass probe of a peer and returns the
// peer's consecutive misses, zero once it answered.
func (a *Agent) observe(name string, answered bool) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if answered {
		delete(a.misses, name)
		return 0
	}
	a.misses[name]++
	return a.misses[name]
}

// Suspected reports whether the liveness pass has seen name miss
// DefaultSuspicionThreshold consecutive probes. Only that pass moves the
// count, once per probe of the peer; verification pings do not.
func (a *Agent) Suspected(name string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.misses[name] >= DefaultSuspicionThreshold
}

// Ping checks whether a remote site's agent answers. It probes under its
// own short timeout (DefaultPingTimeout) with no retries, and shares the
// client's circuit-breaker state: a destination whose breaker is already
// open fails instantly, so heartbeat, takeover verification and
// resolution do not each re-probe a site the client knows is dead.
func (a *Agent) Ping(target SiteInfo) bool {
	if a.client == nil {
		return false
	}
	a.heartbeats.Inc()
	resp, err := a.client.Probe(target.PeerURL(), "Ping", nil, a.pingTimeout)
	return err == nil && resp != nil && resp.Name == "Pong"
}

// ------------------------------------------------------------ coordinator

// CoordinatorConfig tunes the election run by the community-index holder.
type CoordinatorConfig struct {
	// GroupSize is the target number of sites per peer group.
	GroupSize int
	// NotifyDelay separates the two notification rounds ("Notification is
	// done twice (with a configurable time interval)").
	NotifyDelay time.Duration
}

// DefaultGroupSize matches the paper's figure of ~3-4 sites per group.
const DefaultGroupSize = 4

// Coordinate runs a super-peer election over the given community. The
// caller is the GLARE service holding the community index ("A GLARE
// service on a site with community index becomes super-peer election
// coordinator"). It returns the assigned views keyed by site name.
func (a *Agent) Coordinate(sites []SiteInfo, cfg CoordinatorConfig) (views map[string]View, err error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("superpeer: empty community")
	}
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = DefaultGroupSize
	}
	a.elections.Inc()
	// Every election moves the overlay one epoch forward; sites that end
	// up on the stale side of a partition keep the old epoch and are
	// fenced out when they try to push their view after the heal.
	epoch := a.View().Epoch + 1
	// One span covers the whole election round; its correlation ID rides
	// every notification, so /tracez on the member sites links back here.
	sp := a.tel.StartSpan("superpeer.Coordinate", nil)
	sp.SetNote(fmt.Sprintf("community=%d epoch=%d", len(sites), epoch))
	defer func() { sp.End(err) }()
	// Round 1: informational notification carrying community strength.
	note := xmlutil.NewNode("Election")
	note.SetAttr("round", "1")
	note.SetAttr("communitySize", strconv.Itoa(len(sites)))
	note.SetAttr("coordinator", a.self.Name)
	note.SetAttr("epoch", strconv.FormatUint(epoch, 10))
	for _, s := range sites {
		if s.Name == a.self.Name {
			continue
		}
		_, _ = a.client.CallSpan(sp, s.PeerURL(), "ElectNotify", note.Clone())
	}
	if cfg.NotifyDelay > 0 {
		time.Sleep(cfg.NotifyDelay)
	}
	// Round 2: acknowledged notification; only responders participate.
	note.SetAttr("round", "2")
	responding := []SiteInfo{}
	for _, s := range sites {
		if s.Name == a.self.Name {
			responding = append(responding, s)
			continue
		}
		if resp, err := a.client.CallSpan(sp, s.PeerURL(), "ElectNotify", note.Clone()); err == nil && resp != nil {
			responding = append(responding, s)
		}
	}
	if len(responding) == 0 {
		return nil, fmt.Errorf("superpeer: no site acknowledged the election")
	}
	a.mu.Lock()
	replicaK := a.replicaK
	a.mu.Unlock()
	views = PartitionGroups(responding, cfg.GroupSize)
	for name, v := range views {
		v.Epoch = epoch
		v.ReplicaK = replicaK
		views[name] = v
	}
	// Distribute assignments; the coordinator applies its own locally.
	for name, v := range views {
		if name == a.self.Name {
			a.setView(v)
			continue
		}
		var target SiteInfo
		for _, s := range responding {
			if s.Name == name {
				target = s
			}
		}
		if _, err := a.client.CallSpan(sp, target.PeerURL(), "GroupAssign", v.ToXML()); err != nil {
			return views, fmt.Errorf("superpeer: assigning %s: %w", name, err)
		}
	}
	return views, nil
}

// PartitionGroups ranks the sites, elects the top ceil(n/groupSize) as
// super-peers and distributes the remaining members equally among them.
// It is exported (and pure) so the partitioning policy can be tested and
// ablated independently of the messaging.
func PartitionGroups(sites []SiteInfo, groupSize int) map[string]View {
	ranked := RankSites(sites)
	n := len(ranked)
	k := (n + groupSize - 1) / groupSize
	if k < 1 {
		k = 1
	}
	supers := ranked[:k]
	rest := ranked[k:]
	groups := make([][]SiteInfo, k)
	for i, s := range supers {
		groups[i] = []SiteInfo{s}
	}
	for i, s := range rest {
		g := i % k
		groups[g] = append(groups[g], s)
	}
	views := make(map[string]View, n)
	superList := append([]SiteInfo(nil), supers...)
	for gi, members := range groups {
		v := View{Group: members, SuperPeer: supers[gi], SuperPeers: superList}
		for _, m := range members {
			views[m.Name] = v
		}
	}
	return views
}

// --------------------------------------------------------- failure paths

// handleCandidateNotify is received by the highest-ranked member when
// another member detects the super-peer's failure.
func (a *Agent) handleCandidateNotify(body *xmlutil.Node) (*xmlutil.Node, error) {
	if body == nil {
		return nil, fmt.Errorf("CandidateNotify: missing body")
	}
	downName := body.AttrOr("down", "")
	go a.RunTakeover(downName) // verification happens inside
	return xmlutil.NewNode("Noted"), nil
}

// handleVerifyRequest: a member independently verifies that the super-peer
// is unavailable and that the candidate outranks it, then acknowledges.
func (a *Agent) handleVerifyRequest(body *xmlutil.Node) (*xmlutil.Node, error) {
	if body == nil {
		return nil, fmt.Errorf("VerifyRequest: missing body")
	}
	candRank, _ := strconv.ParseUint(body.AttrOr("rank", "0"), 10, 64)
	candName := body.AttrOr("candidate", "")
	a.mu.Lock()
	view := a.view.Clone()
	a.mu.Unlock()
	if view.SuperPeer.IsZero() {
		return nil, fmt.Errorf("VerifyRequest: no group assigned")
	}
	if body.AttrOr("down", "") != view.SuperPeer.Name {
		return nil, fmt.Errorf("VerifyRequest: %q is not my super-peer", body.AttrOr("down", ""))
	}
	// A candidate arguing from an older view (it missed an election or a
	// takeover we already installed) must first catch up; acknowledging it
	// would let the stale side of a partition rebuild itself.
	if ep, err := strconv.ParseUint(body.AttrOr("epoch", "0"), 10, 64); err == nil && ep < view.Epoch {
		return nil, fmt.Errorf("VerifyRequest: candidate view epoch %d is behind %d", ep, view.Epoch)
	}
	// Verify the super-peer really is unreachable.
	if a.Ping(view.SuperPeer) {
		return nil, fmt.Errorf("VerifyRequest: super-peer %s is alive", view.SuperPeer.Name)
	}
	// Verify the candidate is the highest-ranked surviving member.
	for _, s := range view.Group {
		if s.Name == view.SuperPeer.Name || s.Name == candName {
			continue
		}
		if s.Rank > candRank && a.Ping(s) {
			return nil, fmt.Errorf("VerifyRequest: %s outranks candidate", s.Name)
		}
	}
	ack := xmlutil.NewNode("Ack")
	ack.SetAttr("agree", "true")
	ack.SetAttr("name", a.self.Name)
	return ack, nil
}

func (a *Agent) handleTakeover(body *xmlutil.Node) (*xmlutil.Node, error) {
	v, err := ViewFromXML(body)
	if err != nil {
		return nil, err
	}
	if !v.Member(a.self.Name) {
		return nil, fmt.Errorf("Takeover: not my group")
	}
	if !a.setView(v) {
		return nil, fmt.Errorf("Takeover: view (epoch %d) is older than the installed one", v.Epoch)
	}
	return xmlutil.NewNode("Accepted"), nil
}

// handleViewStatus reports this agent's current view, role and epoch. It
// is the probe behind split-brain detection (CheckRivals) and the
// `glarectl status` operator view.
func (a *Agent) handleViewStatus(*xmlutil.Node) (*xmlutil.Node, error) {
	a.mu.Lock()
	v := a.view.Clone()
	role := a.role
	skew := a.skewSource
	a.mu.Unlock()
	n := v.ToXML()
	n.SetAttr("role", role.String())
	n.SetAttr("name", a.self.Name)
	if skew != nil {
		peer, off := skew()
		n.SetAttr("skewMs", fmt.Sprintf("%d", off.Milliseconds()))
		n.SetAttr("skewPeer", peer)
	}
	return n, nil
}

// handleRejoin is the winning side of a split-brain heal: a rival
// super-peer discovered us at a higher (epoch, rank) and abdicates,
// handing over its last view. We merge the two groups, bump the epoch past
// both sides and broadcast the merged view — which the abdicating
// super-peer and its members accept because it out-fences theirs.
func (a *Agent) handleRejoin(body *xmlutil.Node) (*xmlutil.Node, error) {
	loser, err := ViewFromXML(body)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	role := a.role
	cur := a.view.Clone()
	a.mu.Unlock()
	if role != RoleSuperPeer {
		return nil, fmt.Errorf("Rejoin: %s is not a super-peer", a.self.Name)
	}
	merged := MergeViews(cur, loser)
	if !a.setView(merged) {
		return nil, fmt.Errorf("Rejoin: merged view lost against a newer install")
	}
	a.broadcastView(merged)
	resp := xmlutil.NewNode("Merged")
	resp.SetAttr("epoch", strconv.FormatUint(merged.Epoch, 10))
	return resp, nil
}

// DetectAndRecover is the member-side failure path: if the super-peer has
// missed DefaultSuspicionThreshold consecutive probes, compute the ranks of the surviving
// members and notify the highest-ranked *reachable* one (or run the
// takeover directly if that is us). It reports whether recovery was
// initiated; below the suspicion threshold a missed probe only raises
// suspicion.
func (a *Agent) DetectAndRecover() (bool, error) {
	view := a.View()
	if view.SuperPeer.IsZero() || view.SuperPeer.Name == a.self.Name {
		return false, nil
	}
	if a.observe(view.SuperPeer.Name, a.Ping(view.SuperPeer)) < DefaultSuspicionThreshold {
		return false, nil
	}
	// Recovery restarts the count: should it fail, the next attempt waits
	// out a full threshold of misses again.
	a.observe(view.SuperPeer.Name, true)
	survivors := make([]SiteInfo, 0, len(view.Group))
	for _, s := range view.Group {
		if s.Name != view.SuperPeer.Name {
			survivors = append(survivors, s)
		}
	}
	ranked := RankSites(survivors)
	if len(ranked) == 0 {
		return false, fmt.Errorf("superpeer: no survivors in group")
	}
	a.recoveries.Inc()
	// Walk the ranking and hand the candidacy to the first survivor that
	// answers: under a partition the globally highest-ranked member may be
	// on the other side, and recovery must make do with who is reachable.
	note := xmlutil.NewNode("SuperPeerDown")
	note.SetAttr("down", view.SuperPeer.Name)
	for _, s := range ranked {
		if s.Name == a.self.Name {
			return true, a.RunTakeover(view.SuperPeer.Name)
		}
		if _, err := a.client.Call(s.PeerURL(), "CandidateNotify", note.Clone()); err == nil {
			return true, nil
		}
	}
	return false, fmt.Errorf("superpeer: no reachable takeover candidate in group")
}

// RunTakeover is the candidate-side protocol: (a) verify the super-peer is
// down, (b) verify our own rank, (c) collect verification acks from every
// member; a simple majority confirms and we take over.
func (a *Agent) RunTakeover(downName string) error {
	view := a.View()
	if view.SuperPeer.IsZero() || view.SuperPeer.Name != downName {
		return fmt.Errorf("superpeer: %q is not the current super-peer", downName)
	}
	if a.Ping(view.SuperPeer) {
		return fmt.Errorf("superpeer: %s is alive, aborting takeover", downName)
	}
	survivors := make([]SiteInfo, 0, len(view.Group))
	for _, s := range view.Group {
		if s.Name != downName {
			survivors = append(survivors, s)
		}
	}
	// We may proceed only if every survivor ranked above us is itself
	// unreachable — the same reachability rule the members apply when
	// verifying. Under a partition this lets the best-ranked member of
	// each side stand, and the epoch fence arbitrates after the heal.
	ranked := RankSites(survivors)
	eligible := false
	for _, s := range ranked {
		if s.Name == a.self.Name {
			eligible = true
			break
		}
		if a.Ping(s) {
			return fmt.Errorf("superpeer: %s outranks %s and is alive", s.Name, a.self.Name)
		}
	}
	if !eligible {
		return fmt.Errorf("superpeer: %s is not in the surviving group", a.self.Name)
	}
	// Collect verification acks from the other members.
	req := xmlutil.NewNode("Verify")
	req.SetAttr("down", downName)
	req.SetAttr("candidate", a.self.Name)
	req.SetAttr("rank", strconv.FormatUint(a.self.Rank, 10))
	req.SetAttr("epoch", strconv.FormatUint(view.Epoch, 10))
	acks := 1 // our own vote
	for _, s := range survivors {
		if s.Name == a.self.Name {
			continue
		}
		if resp, err := a.client.Call(s.PeerURL(), "VerifyRequest", req.Clone()); err == nil &&
			resp != nil && resp.AttrOr("agree", "") == "true" {
			acks++
		}
	}
	if acks*2 <= len(survivors) {
		return fmt.Errorf("superpeer: only %d/%d acknowledgements, no majority", acks, len(survivors))
	}
	// Build the new view: we are the super-peer; the super-group swaps the
	// failed peer for us.
	newSupers := make([]SiteInfo, 0, len(view.SuperPeers))
	for _, s := range view.SuperPeers {
		if s.Name == downName {
			newSupers = append(newSupers, a.self)
		} else {
			newSupers = append(newSupers, s)
		}
	}
	newView := View{Epoch: view.Epoch + 1, Group: survivors, SuperPeer: a.self, SuperPeers: newSupers, ReplicaK: view.ReplicaK}
	a.takeovers.Inc()
	if !a.setView(newView) {
		return fmt.Errorf("superpeer: takeover view lost against a newer install")
	}
	a.broadcastView(newView)
	return nil
}

// broadcastView pushes an installed view to every other group member,
// retrying each failed send once. Failures are counted in
// glare_superpeer_view_propagate_failures_total (per attempt), so members
// that silently missed a view change are at least observable.
func (a *Agent) broadcastView(v View) {
	for _, s := range v.Group {
		if s.Name == a.self.Name {
			continue
		}
		if _, err := a.client.Call(s.PeerURL(), "Takeover", v.ToXML()); err == nil {
			continue
		}
		a.propagateFails.Inc()
		if _, err := a.client.Call(s.PeerURL(), "Takeover", v.ToXML()); err != nil {
			a.propagateFails.Inc()
		}
	}
}

// CheckRivals is the super-peer-side split-brain probe: ask every site in
// our view (group members and fellow super-peers) for its ViewStatus; if
// any of them follows a *different* super-peer for an overlapping group,
// one of the two reigns must end. The loser by (epoch, rank, name)
// abdicates: if that is us, we hand our view to the winner's Rejoin and
// step down when its merged broadcast arrives; if that is them, we merge
// their group into ours and broadcast. Every probe also counts toward the
// site's misses (Suspected), which drives replica failover. Reports
// whether a heal happened.
func (a *Agent) CheckRivals() (bool, error) {
	if a.Role() != RoleSuperPeer || a.client == nil {
		return false, nil
	}
	view := a.View()
	probed := map[string]bool{a.self.Name: true}
	for _, s := range append(append([]SiteInfo(nil), view.Group...), view.SuperPeers...) {
		if probed[s.Name] {
			continue
		}
		probed[s.Name] = true
		resp, err := a.client.Probe(s.PeerURL(), "ViewStatus", nil, a.pingTimeout)
		// Any answer proves the site alive, a viewless one included.
		a.observe(s.Name, err == nil)
		if err != nil || resp == nil || resp.AttrOr("superPeer", "") == "" {
			continue
		}
		rv, err := ViewFromXML(resp)
		if err != nil || rv.SuperPeer.Name == a.self.Name {
			continue
		}
		// A different super-peer is only a rival if our groups overlap;
		// disjoint groups are just the normal multi-group overlay.
		overlap := false
		for _, m := range rv.Group {
			if view.Member(m.Name) {
				overlap = true
				break
			}
		}
		if !overlap {
			continue
		}
		a.rivals.Inc()
		if view.OlderThan(rv) {
			// They out-fence us: abdicate by asking their super-peer to
			// absorb our group. Our own step-down happens when the merged
			// view is broadcast back to us.
			if _, err := a.client.Call(rv.SuperPeer.PeerURL(), "Rejoin", view.ToXML()); err != nil {
				return false, fmt.Errorf("superpeer: rejoining %s: %w", rv.SuperPeer.Name, err)
			}
			return true, nil
		}
		// We out-fence them: absorb their group and broadcast, which
		// forces the rival super-peer down via the epoch fence.
		merged := MergeViews(view, rv)
		if !a.setView(merged) {
			return false, fmt.Errorf("superpeer: merged view lost against a newer install")
		}
		a.broadcastView(merged)
		return true, nil
	}
	return false, nil
}

// Maintain is one overlay-maintenance pass, the site's failure detector:
// a super-peer probes every site in its view for rival reigns left behind
// by a healed partition (CheckRivals); any other site probes its
// super-peer's liveness (DetectAndRecover). Either way each probe moves
// that peer's miss count once.
func (a *Agent) Maintain() {
	if a.IsSuperPeer() {
		_, _ = a.CheckRivals()
	} else {
		_, _ = a.DetectAndRecover()
	}
}
