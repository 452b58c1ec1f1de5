package rdm

import (
	"context"
	"fmt"
	"time"

	"glare/internal/activity"
	"glare/internal/adr"
	"glare/internal/atr"
	"glare/internal/epr"
	"glare/internal/hlc"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

// This file is the anti-entropy reconciler (Dynamo-style, keyed on the
// paper's LastUpdateTime EPR property): after a network partition heals,
// the two sides hold disjoint registrations. A super-peer periodically
// exchanges ATR/ADR digests — (name → LastUpdateTime) pairs — with its
// group members and fellow super-peers, pulls entries it has never seen
// (or only in an older version) into the two-level cache, and re-registers
// its local types with the community index. Registrations made on either
// side of a split therefore survive the heal without waiting for a lookup
// to stumble over them.

// RegistryDigest builds this site's registry digest: one <Type> element
// per ATR entry and one <Dep> element per ADR entry, each carrying the
// resource's LastUpdateTime in the EPR time layout.
func (s *Service) RegistryDigest() *xmlutil.Node {
	n := xmlutil.NewNode("Digest")
	n.SetAttr("site", s.selfName())
	for _, name := range s.ATR.Names() {
		lut, ok := s.ATR.LUT(name)
		if !ok {
			continue
		}
		t := n.Elem("Type", "")
		t.SetAttr("name", name)
		t.SetAttr("lut", lut.Format(epr.TimeLayout))
	}
	for _, d := range s.ADR.All() {
		lut, ok := s.ADR.LUT(d.Name)
		if !ok {
			continue
		}
		e := n.Elem("Dep", "")
		e.SetAttr("name", d.Name)
		e.SetAttr("type", d.Type)
		e.SetAttr("lut", lut.Format(epr.TimeLayout))
	}
	// Artifact-grid holdings ride the same digest: one <Blob> element per
	// known (blob, holder) location.
	s.appendBlobDigest(n)
	return n
}

// SyncRegistries is one anti-entropy pass, run by super-peers: exchange
// digests with every group member and fellow super-peer, pull entries that
// are missing here (or newer there) into the type/deployment caches, and
// refresh this site's registrations in its index so the community
// aggregation reflects both sides of a healed partition. Returns how many
// entries were pulled; glare_sync_entries_pulled_total counts the same.
func (s *Service) SyncRegistries() int {
	if s.cacheOff {
		return 0
	}
	view := s.view()
	if view.SuperPeer.IsZero() {
		return 0
	}
	sp := s.tel.StartSpan("rdm.SyncRegistries", nil)
	pulled := 0
	seen := map[string]bool{s.selfName(): true}
	targets := append([]superpeer.SiteInfo(nil), view.Peers(s.selfName())...)
	if view.SuperPeer.Name == s.selfName() {
		targets = append(targets, view.SuperPeers...)
	} else {
		targets = append(targets, view.SuperPeer)
	}
	for _, t := range targets {
		if seen[t.Name] {
			continue
		}
		seen[t.Name] = true
		pulled += s.syncWith(sp, t)
	}
	// Re-register local entries with the local (possibly community) index:
	// an index rebuilt or repartitioned during the split re-learns what
	// this site owns.
	s.reindexLocalTypes()
	sp.SetNote(fmt.Sprintf("pulled=%d", pulled))
	sp.End(nil)
	return pulled
}

// syncWith reconciles against one remote site: fetch its digest, pull
// every type or deployment that is newer than what the local registry and
// cache hold, and seed the two-level cache with source EPRs stamped with
// the REMOTE LastUpdateTime — so the ordinary cache refresher keeps the
// synced entries alive afterwards.
func (s *Service) syncWith(sp *telemetry.Span, target superpeer.SiteInfo) int {
	digest, err := s.call(context.Background(), sp, target.ServiceURL(ServiceName), "RegistryDigest", nil)
	if err != nil || digest == nil {
		return 0
	}
	pulled := 0
	for _, n := range digest.All("Type") {
		name := n.AttrOr("name", "")
		lut, perr := time.Parse(epr.TimeLayout, n.AttrOr("lut", ""))
		if name == "" || perr != nil {
			continue
		}
		if local, ok := s.ATR.LUT(name); ok && !hlc.Newer(lut, target.Name, local, s.selfName()) {
			continue // we own a copy that orders same-or-newer (HLC, site)
		}
		if e, ok := s.typeCache.Peek("type:" + name); ok &&
			!hlc.Newer(lut, target.Name, e.Source.LastUpdateTime, e.Source.Extra["OriginSite"]) {
			continue // cache already carries this version
		}
		doc, err := s.call(context.Background(), sp, target.ServiceURL(atr.ServiceName), "GetType", xmlutil.NewNode("Name", name))
		if err != nil || doc == nil {
			continue
		}
		src := epr.New(target.ServiceURL(atr.ServiceName), atr.KeyName, name)
		src.LastUpdateTime = lut
		// Record where the entry came from: read repair and operators need
		// the provenance of pulled copies, not just their freshness.
		src.Extra = map[string]string{"OriginSite": target.Name}
		if !s.typeCache.PutIfNewer("type:"+name, src, doc.Clone()) {
			continue
		}
		if t, terr := activity.TypeFromXML(doc); terr == nil && !t.Abstract {
			list := xmlutil.NewNode("Types")
			list.Add(doc.Clone())
			s.typeCache.PutIfNewer("concrete:"+name, src, list)
		}
		pulled++
		s.syncPulled.Inc()
		s.tel.Counter("glare_sync_entries_pulled_total", telemetry.L("source", target.Name)).Inc()
	}
	for _, n := range digest.All("Dep") {
		name := n.AttrOr("name", "")
		typeName := n.AttrOr("type", "")
		lut, perr := time.Parse(epr.TimeLayout, n.AttrOr("lut", ""))
		if name == "" || perr != nil {
			continue
		}
		if local, ok := s.ADR.LUT(name); ok && !hlc.Newer(lut, target.Name, local, s.selfName()) {
			continue // we own a copy that orders same-or-newer (HLC, site)
		}
		if e, ok := s.depCache.Peek("dep:" + name); ok &&
			!hlc.Newer(lut, target.Name, e.Source.LastUpdateTime, e.Source.Extra["OriginSite"]) {
			continue // cache already carries this version
		}
		doc, err := s.call(context.Background(), sp, target.ServiceURL(adr.ServiceName), "Get", xmlutil.NewNode("Name", name))
		if err != nil || doc == nil {
			continue
		}
		src := epr.New(target.ServiceURL(adr.ServiceName), adr.KeyName, name)
		src.LastUpdateTime = lut
		src.Extra = map[string]string{"OriginSite": target.Name}
		if !s.depCache.PutIfNewer("dep:"+name, src, doc.Clone()) {
			continue
		}
		if typeName != "" {
			s.mergeDepIndex(typeName, name)
		}
		pulled++
		s.syncPulled.Inc()
		s.tel.Counter("glare_sync_entries_pulled_total", telemetry.L("source", target.Name)).Inc()
	}
	// Blob locations are metadata-only (no document fetch): fold the
	// remote's view of who holds what into the location table.
	s.mergeBlobDigest(digest)
	return pulled
}

// mergeDepIndex folds one deployment name into the cached per-type index
// that resolution consults, so a synced deployment is reachable
// before the next VO-wide fan-out rebuilds the list.
func (s *Service) mergeDepIndex(typeName, depName string) {
	key := "index:" + typeName
	idx := xmlutil.NewNode("Index")
	if e, ok := s.depCache.Peek(key); ok {
		for _, n := range e.Doc.All("Name") {
			if n.Text == depName {
				return
			}
			idx.Elem("Name", n.Text)
		}
	}
	idx.Elem("Name", depName)
	s.depCache.Put(key, epr.EPR{}, idx)
}

// reindexLocalTypes re-registers every locally owned type with the site's
// index. Registration is idempotent (keyed by EPR), so repeating it after
// a heal only refreshes entries the index may have lost.
func (s *Service) reindexLocalTypes() {
	for _, name := range s.ATR.Names() {
		doc, ok := s.ATR.LookupDocument(name)
		if !ok {
			continue
		}
		e := s.ATR.EPR(name)
		if lut, ok := s.ATR.LUT(name); ok {
			e.LastUpdateTime = lut
		}
		s.localIndex.Register(e, doc.Clone())
	}
}
