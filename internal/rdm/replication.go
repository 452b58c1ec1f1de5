package rdm

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"glare/internal/epr"
	"glare/internal/hlc"
	"glare/internal/lease"
	"glare/internal/replicate"
	"glare/internal/store"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

// This file wires quorum replication (internal/replicate) under the RDM:
// the site journal (durability.go) fans every ATR/ADR/lease mutation out to
// the site's replica set after its WAL append; registrations additionally
// block on the write quorum before acknowledging the client.
// Replicas keep the copies as shadow state ("replica:<origin>:<reg>"
// registries riding the ordinary WAL), the super-peer promotes the
// most-caught-up replica when an owner dies permanently, read repair
// back-fills replicas that missed writes, and a promoted holder hands the
// data back when the dead site's replacement rejoins.

// replicaRegPrefix keys the shadow registries inside the store.
const replicaRegPrefix = "replica:"

func replicaRegName(origin, reg string) string {
	return replicaRegPrefix + origin + ":" + reg
}

// parseReplicaReg splits "replica:<origin>:<reg>" back apart.
func parseReplicaReg(name string) (origin, reg string, ok bool) {
	rest, found := strings.CutPrefix(name, replicaRegPrefix)
	if !found {
		return "", "", false
	}
	origin, reg, ok = strings.Cut(rest, ":")
	return origin, reg, ok && origin != "" && reg != ""
}

// leaseTicketDoc renders a ticket for the replication wire: tickets travel
// as JSON inside a <LeaseTicket> node so they ride the same entry
// transport as registry documents. Lease grants replicate asynchronously
// (no quorum gate — a lease is a lost-on-failure reservation, not registry
// data), but a promoted replica still revives unexpired tickets so clients
// keep their reservations across an owner's death.
func leaseTicketDoc(t lease.Ticket) *xmlutil.Node {
	b, _ := json.Marshal(t)
	return xmlutil.NewNode("LeaseTicket", string(b))
}

func ticketFromDoc(doc *xmlutil.Node) (lease.Ticket, error) {
	var t lease.Ticket
	if doc == nil || doc.Name != "LeaseTicket" {
		return t, fmt.Errorf("rdm: not a lease ticket document")
	}
	err := json.Unmarshal([]byte(doc.Text), &t)
	return t, err
}

// setupReplication assembles the replicator. New runs it before
// attachStore, so recovery restores the holder's shadow registries too.
// Replica entries ride the site's store (nothing on a memory-only site).
func (s *Service) setupReplication(cfg Config) {
	if cfg.ReplicaK <= 1 {
		return
	}
	s.repl = replicate.New(replicate.Config{
		Self: s.agent.Self(),
		K:    cfg.ReplicaK,
		View: s.view,
		Call: func(ctx context.Context, address, op string, body *xmlutil.Node) (*xmlutil.Node, error) {
			return s.call(ctx, nil, address, op, body)
		},
		Service: ServiceName,
		Journals: func(origin, reg string) replicate.Journal {
			return cfg.Store.RegistryJournal(replicaRegName(origin, reg))
		},
		Now: s.hlc.Now,
		Tel: s.tel,
	})
	// The overlay carries the factor: every coordinated view is stamped
	// with it, so all sites derive the same replica-set assignment.
	s.agent.SetReplicaK(cfg.ReplicaK)
}

// MountReplication adds the replication wire operations to the RDM's
// service table. Mount calls it when replication is enabled.
func (s *Service) MountReplication(srv *transport.Server) {
	srv.RegisterCtxService(ServiceName, map[string]transport.CtxHandler{
		// Replicate applies one mutation from an owner. The epoch fence
		// inside Apply rejects writes stamped with a view older than ours.
		"Replicate": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			m, err := replicate.MutationFromXML(body)
			if err != nil {
				return nil, err
			}
			if err := s.repl.Apply(m); err != nil {
				return nil, err
			}
			return xmlutil.NewNode("Applied"), nil
		},
		// ReplicaFetch serves an origin's entries — our own registries when
		// asked about ourselves (the canonical copy), otherwise every record
		// the holder shadows, tombstones included. Read repair pulls
		// through this.
		"ReplicaFetch": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			origin := textOf(body)
			if origin == "" {
				return nil, fmt.Errorf("ReplicaFetch: needs an origin site name")
			}
			if origin == s.selfName() {
				return replicate.EntriesToXML(origin, s.ownEntries()), nil
			}
			return replicate.EntriesToXML(origin, s.repl.Holder().Records(origin)), nil
		},
		"ReplicaStatus": func(_ context.Context, _ *telemetry.Span, _ *xmlutil.Node) (*xmlutil.Node, error) {
			return s.ReplicaStatusXML(), nil
		},
		// ReplicaPromote orders this site to adopt a dead origin's entries
		// as its own (sent by the super-peer to the most-caught-up holder).
		"ReplicaPromote": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			origin := textOf(body)
			if origin == "" {
				return nil, fmt.Errorf("ReplicaPromote: needs an origin site name")
			}
			adopted := s.PromoteOrigin(origin)
			resp := xmlutil.NewNode("Promoted")
			resp.SetAttr("origin", origin)
			resp.SetAttr("adopted", strconv.Itoa(adopted))
			return resp, nil
		},
		// ReplicaHandOff delivers a promoted holder's copy of OUR data back
		// to us — we are a dead site's replacement rejoining under its name.
		"ReplicaHandOff": func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
			origin, regs, err := replicate.EntriesFromXML(body)
			if err != nil {
				return nil, err
			}
			if origin != s.selfName() {
				return nil, fmt.Errorf("ReplicaHandOff: payload for %q delivered to %q", origin, s.selfName())
			}
			adopted := s.adoptEntries(regs)
			resp := xmlutil.NewNode("HandedOff")
			resp.SetAttr("adopted", strconv.Itoa(adopted))
			return resp, nil
		},
	})
}

// ownEntries snapshots this site's own registries in replication-entry
// form (the canonical copy a replica repairs from). Lease tickets are not
// enumerable from outside the lease service; they reach replicas through
// the journal fan-out only.
func (s *Service) ownEntries() map[string][]replicate.Entry {
	out := map[string][]replicate.Entry{}
	for reg, home := range map[string]*wsrf.Home{store.RegATR: s.ATR.Home(), store.RegADR: s.ADR.Home()} {
		for _, res := range home.All() {
			out[reg] = append(out[reg], replicate.Entry{Key: res.Key(), Doc: res.Document(),
				LUT: res.LastUpdate(), Term: res.TerminationTime()})
		}
	}
	return out
}

// adoptEntries folds replicated entries into this site's own registries,
// newest copy wins; tombstones carry no document and are skipped.
// Adoption goes through the homes' Adopt — journaled like a registration,
// so the adopted entries are durable here AND re-replicate to this site's
// own replica set — and adopted types re-register with the local index so
// resolution re-routes to the new owner transparently.
func (s *Service) adoptEntries(regs map[string][]replicate.Entry) int {
	adopt := func(home *wsrf.Home, e replicate.Entry) bool {
		if e.Doc == nil {
			return false
		}
		if lut, _, ok := home.Timestamps(e.Key); ok && !e.LUT.After(lut) {
			return false
		}
		home.Adopt(e.Key, e.Doc.Clone(), e.LUT, e.Term)
		return true
	}
	adopted := 0
	for _, e := range regs[store.RegATR] {
		if !adopt(s.ATR.Home(), e) {
			continue
		}
		s.localIndex.Register(s.ATR.EPR(e.Key), e.Doc.Clone())
		adopted++
	}
	for _, e := range regs[store.RegADR] {
		if adopt(s.ADR.Home(), e) {
			adopted++
		}
	}
	for _, e := range regs[store.RegLease] {
		t, err := ticketFromDoc(e.Doc)
		if err != nil {
			continue
		}
		if s.Leases.Restore(t) {
			adopted++
		}
	}
	return adopted
}

// PromoteOrigin makes this site the authoritative owner of a dead
// origin's replicated entries. Idempotent: a second promotion of the same
// origin is a no-op. Returns how many entries were adopted.
func (s *Service) PromoteOrigin(origin string) int {
	if s.repl == nil {
		return 0
	}
	h := s.repl.Holder()
	if h.Promoted(origin) {
		return 0
	}
	adopted := s.adoptEntries(h.Records(origin))
	h.SetPromoted(origin, true)
	s.repl.Promotions.Inc()
	return adopted
}

// checkReplicas is the failover half of the liveness pass, run by a
// replicating super-peer after its agent's probes: each group member the
// agent suspects dead (superpeer.DefaultSuspicionThreshold consecutive
// missed probes) has its data promoted on the most-caught-up holder (see
// promoteBestHolder). Returns how many promotions this pass ordered.
func (s *Service) checkReplicas() int {
	if s.repl == nil || !s.agent.IsSuperPeer() {
		return 0
	}
	view := s.view()
	promotions := 0
	for _, member := range view.Peers(s.selfName()) {
		// Completion is tracked on the super-peer side: the promoted best
		// holder is usually a REMOTE site, so the local holder's flag
		// cannot tell a done promotion from a pending one — relying on it
		// would re-gather status and re-send ReplicaPromote on every pass
		// forever. The holder check still short-circuits the
		// self-promotion case after a super-peer restart.
		suspected := s.agent.Suspected(member.Name)
		s.mu.Lock()
		if !suspected {
			// The member answers again, so a later death re-promotes.
			delete(s.ordered, member.Name)
		}
		done := s.ordered[member.Name]
		s.mu.Unlock()
		if !suspected || done || s.repl.Holder().Promoted(member.Name) {
			continue
		}
		if s.promoteBestHolder(view, member) {
			s.mu.Lock()
			s.ordered[member.Name] = true
			s.mu.Unlock()
			promotions++
		}
	}
	return promotions
}

// promoteBestHolder gathers replica status for a dead owner from every
// surviving member of its replica set (including this site) and promotes
// the most-caught-up one: the newest stamp seen first, a tombstone's
// included, so a holder that missed a delete loses to one that saw it;
// then the most live entries; then the site name. Stamps and entries
// survive a holder's own restart.
func (s *Service) promoteBestHolder(view superpeer.View, dead superpeer.SiteInfo) bool {
	type candidate struct {
		site    superpeer.SiteInfo
		entries int
		lut     time.Time
	}
	var best *candidate
	better := func(c *candidate) bool {
		if best == nil {
			return true
		}
		if c.lut.Equal(best.lut) && c.entries != best.entries {
			return c.entries > best.entries
		}
		// Site name breaks exact ties so every super-peer — whichever one
		// runs the pass — promotes the same holder deterministically.
		return hlc.Newer(c.lut, c.site.Name, best.lut, best.site.Name)
	}
	self := s.selfName()
	for _, site := range replicate.ReplicaSet(view, dead.Name, s.repl.K()) {
		status, err := s.ReplicaStatusXML(), error(nil)
		if site.Name != self {
			status, err = s.call(context.Background(), nil, site.ServiceURL(ServiceName), "ReplicaStatus", nil)
		}
		if err != nil || status == nil {
			continue
		}
		for _, o := range status.All("Origin") {
			if o.AttrOr("name", "") != dead.Name {
				continue
			}
			c := &candidate{site: site}
			c.entries, _ = strconv.Atoi(o.AttrOr("entries", "0"))
			c.lut, _ = time.Parse(epr.TimeLayout, o.AttrOr("lastLUT", ""))
			if better(c) {
				best = c
			}
		}
	}
	if best == nil || best.entries == 0 {
		return false
	}
	if best.site.Name == self {
		s.PromoteOrigin(dead.Name)
		return true
	}
	_, err := s.call(context.Background(), nil, best.site.ServiceURL(ServiceName), "ReplicaPromote",
		xmlutil.NewNode("Origin", dead.Name))
	return err == nil
}

// RepairReplicas is one read-repair pass, run by every replicating site:
// for each group member whose replica set includes us, pull its entries —
// from the member itself when alive (the canonical copy), else from its
// fellow replicas, whose tombstones come along — and back-fill anything
// we missed. Afterwards, any origin we promoted that answers again (a
// replacement joined under the dead site's name) gets its data handed
// back. Returns how many records were back-filled.
func (s *Service) RepairReplicas() int {
	if s.repl == nil {
		return 0
	}
	view := s.view()
	self := s.selfName()
	repaired := 0
	for _, member := range view.Peers(self) {
		set := replicate.ReplicaSet(view, member.Name, s.repl.K())
		if !replicate.Contains(set, self) {
			continue
		}
		repaired += s.repairFrom(member, set)
	}
	s.handOffPromoted(view)
	return repaired
}

func (s *Service) repairFrom(origin superpeer.SiteInfo, set []superpeer.SiteInfo) int {
	self := s.selfName()
	sources := []superpeer.SiteInfo{origin}
	for _, rep := range set {
		if rep.Name != self && rep.Name != origin.Name {
			sources = append(sources, rep)
		}
	}
	h := s.repl.Holder()
	for _, src := range sources {
		resp, err := s.call(context.Background(), nil, src.ServiceURL(ServiceName), "ReplicaFetch",
			xmlutil.NewNode("Origin", origin.Name))
		if err != nil || resp == nil {
			continue
		}
		name, regs, perr := replicate.EntriesFromXML(resp)
		if perr != nil || name != origin.Name {
			continue
		}
		n := 0
		for reg, entries := range regs {
			for _, e := range entries {
				if !h.Has(origin.Name, reg, e.Key, e.LUT) && h.Apply(origin.Name, reg, e) {
					n++
					s.repl.ReadRepairs.Inc()
				}
			}
		}
		return n
	}
	return 0
}

// handOffPromoted pushes adopted entries back to origins that answer
// again. The receiver adopts newest-wins, so repeating a hand-off is
// harmless; the promoted flag clears only after a successful push.
func (s *Service) handOffPromoted(view superpeer.View) {
	h := s.repl.Holder()
	for _, origin := range h.Origins() {
		if !h.Promoted(origin) {
			continue
		}
		var target superpeer.SiteInfo
		for _, m := range view.Group {
			if m.Name == origin {
				target = m
			}
		}
		if target.IsZero() || !s.agent.Ping(target) {
			continue
		}
		body := replicate.EntriesToXML(origin, h.Records(origin))
		if _, err := s.call(context.Background(), nil, target.ServiceURL(ServiceName), "ReplicaHandOff", body); err != nil {
			continue
		}
		h.SetPromoted(origin, false)
		s.repl.HandOffs.Inc()
	}
}

// ReplicaStatusXML renders this site's replication state for the wire —
// the payload of the RDM "ReplicaStatus" operation and of
// `glarectl replicas`.
func (s *Service) ReplicaStatusXML() *xmlutil.Node {
	n := xmlutil.NewNode("Replicas")
	n.SetAttr("site", s.selfName())
	if s.repl == nil {
		n.SetAttr("enabled", "false")
		return n
	}
	n.SetAttr("enabled", "true")
	n.SetAttr("k", strconv.Itoa(s.repl.K()))
	for _, rep := range s.repl.Replicas() {
		n.Elem("Replica").SetAttr("name", rep.Name)
	}
	h := s.repl.Holder()
	for _, origin := range h.Origins() {
		entries, lastLUT, promoted := h.Status(origin)
		o := n.Elem("Origin")
		o.SetAttr("name", origin)
		o.SetAttr("entries", strconv.Itoa(entries))
		if !lastLUT.IsZero() {
			o.SetAttr("lastLUT", lastLUT.Format(epr.TimeLayout))
		}
		o.SetAttr("promoted", strconv.FormatBool(promoted))
	}
	return n
}
