package rdm

import (
	"context"

	"glare/internal/superpeer"
	"glare/internal/xmlutil"
)

// This file is the anti-entropy pass. Documents stay with their owners:
// a super-peer caches only what its own resolutions fetched, as the paper
// asks. What anti-entropy still moves is metadata. A super-peer exchanges
// blob-location digests with its group members and fellow super-peers, so
// artifact holdings made on either side of a healed partition become
// fetchable, and it re-registers its local types with the community index,
// so an index rebuilt during the split re-learns what this site owns.

// RegistryDigest builds this site's digest: one <Blob> element per known
// (blob, holder) location, each carrying the advertisement's HLC stamp.
func (s *Service) RegistryDigest() *xmlutil.Node {
	n := xmlutil.NewNode("Digest")
	n.SetAttr("site", s.selfName())
	s.appendBlobDigest(n)
	return n
}

// SyncRegistries is one anti-entropy pass, run by super-peers: fetch the
// digest of every group member and fellow super-peer, fold its blob
// locations into the location table, and refresh this site's
// registrations in its index.
func (s *Service) SyncRegistries() {
	view := s.view()
	if view.SuperPeer.IsZero() {
		return
	}
	sp := s.tel.StartSpan("rdm.SyncRegistries", nil)
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
		digest, err := s.call(context.Background(), sp, t.ServiceURL(ServiceName), "RegistryDigest", nil)
		if err == nil && digest != nil {
			s.mergeBlobDigest(digest)
		}
	}
	s.reindexLocalTypes()
	sp.End(nil)
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
