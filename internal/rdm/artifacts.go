package rdm

// This file is the grid side of the content-addressed artifact store
// (internal/cas): the fallback ladder deploy transfers walk (local CAS →
// peer holders → rendezvous home → origin), the ArtifactFetch/
// ArtifactStatus wire ops, holding advertisement through the anti-entropy
// digest, and the location table learned from peers' digests.
//
// The routing rule that bounds origin traffic during a flash install is
// rendezvous hashing: every blob key deterministically elects one "home"
// site among the epoch-fenced view's group members. A site that misses
// locally asks known holders first, then the home with pull-through
// enabled; the home collapses concurrent misses under a per-key
// singleflight and fetches from origin once. N sites installing the same
// release concurrently therefore cost one origin transfer per blob (two
// when a rotted copy forces a requester to fall back to origin itself),
// regardless of N.

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"glare/internal/cas"
	"glare/internal/deployfile"
	"glare/internal/epr"
	"glare/internal/gridftp"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

// maxPeerCandidates bounds how many advertised holders a miss will try
// before the rendezvous home; each attempt is a wire call.
const maxPeerCandidates = 2

// casCounters bundles the artifact-grid telemetry.
type casCounters struct {
	hits           *telemetry.Counter
	misses         *telemetry.Counter
	evictions      *telemetry.Counter
	peerFetches    *telemetry.Counter
	originFetches  *telemetry.Counter
	verifyFailures *telemetry.Counter
	bytesSaved     *telemetry.Counter
	bytes          *telemetry.Gauge
	entries        *telemetry.Gauge
}

func newCASCounters(tel *telemetry.Telemetry) casCounters {
	return casCounters{
		hits:           tel.Counter("glare_cas_hits_total"),
		misses:         tel.Counter("glare_cas_misses_total"),
		evictions:      tel.Counter("glare_cas_evictions_total"),
		peerFetches:    tel.Counter("glare_cas_peer_fetches_total"),
		originFetches:  tel.Counter("glare_cas_origin_fetches_total"),
		verifyFailures: tel.Counter("glare_cas_verify_failures_total"),
		bytesSaved:     tel.Counter("glare_cas_bytes_saved_total"),
		bytes:          tel.Gauge("glare_cas_bytes"),
		entries:        tel.Gauge("glare_cas_entries"),
	}
}

// artifactLocations is the site's view of who holds which blob, fed by its
// own ingests and by <Blob> elements in peers' anti-entropy digests.
// Entries are advisory: a fetch that finds the holder empty (or rotted)
// drops the location and the ladder moves on.
type artifactLocations struct {
	mu    sync.Mutex
	byKey map[cas.Key]map[string]time.Time
}

func newArtifactLocations() *artifactLocations {
	return &artifactLocations{byKey: map[cas.Key]map[string]time.Time{}}
}

// Note records that site held the blob as of lut; newer timestamps win.
func (l *artifactLocations) Note(k cas.Key, site string, lut time.Time) {
	if k.IsZero() || site == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.byKey[k]
	if m == nil {
		m = map[string]time.Time{}
		l.byKey[k] = m
	}
	if lut.After(m[site]) || m[site].IsZero() {
		m[site] = lut
	}
}

// Drop forgets one holder of a blob.
func (l *artifactLocations) Drop(k cas.Key, site string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m := l.byKey[k]; m != nil {
		delete(m, site)
		if len(m) == 0 {
			delete(l.byKey, k)
		}
	}
}

// Holders lists the known holders of a blob, freshest advertisement first
// (name-ordered on ties, so the walk is deterministic).
func (l *artifactLocations) Holders(k cas.Key) []string {
	l.mu.Lock()
	m := l.byKey[k]
	type loc struct {
		site string
		lut  time.Time
	}
	locs := make([]loc, 0, len(m))
	for s, t := range m {
		locs = append(locs, loc{s, t})
	}
	l.mu.Unlock()
	sort.Slice(locs, func(i, j int) bool {
		if !locs[i].lut.Equal(locs[j].lut) {
			return locs[i].lut.After(locs[j].lut)
		}
		return locs[i].site < locs[j].site
	})
	out := make([]string, len(locs))
	for i, lc := range locs {
		out[i] = lc.site
	}
	return out
}

// blobLocation is one (blob, holder) pair for the digest.
type blobLocation struct {
	Key  cas.Key
	Site string
	LUT  time.Time
}

// Snapshot lists every known location, deterministically ordered.
func (l *artifactLocations) Snapshot() []blobLocation {
	l.mu.Lock()
	var out []blobLocation
	for k, m := range l.byKey {
		for s, t := range m {
			out = append(out, blobLocation{Key: k, Site: s, LUT: t})
		}
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key.String() < out[j].Key.String()
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// ---------------------------------------------------------------------------
// Ingest, eviction bookkeeping, and the durable journal.

// casIngest stores a verified blob, journals the mutation, advertises the
// holding and settles eviction bookkeeping for anything pushed out.
func (s *Service) casIngest(e cas.Entry) {
	if e.Added.IsZero() {
		e.Added = s.hlc.Now()
	}
	evicted, stored := s.cas.Put(e)
	self := s.selfName()
	for _, ev := range evicted {
		s.casTel.evictions.Inc()
		s.casLoc.Drop(ev.Key, self)
		_ = s.store.DeleteBlob(ev.Key.String())
	}
	if stored {
		s.casLoc.Note(e.Key, self, e.Added)
		_ = s.store.PutBlob(store.CASBlob{
			Algo: e.Key.Algo, Sum: e.Key.Sum, Actual: e.Sum, Size: e.Size,
			MD5: e.MD5, Artifact: e.Artifact, URL: e.URL, Added: e.Added,
		})
	}
	s.casGauges()
}

// casDrop purges one blob (rot detected, or admin action).
func (s *Service) casDrop(key cas.Key) {
	if _, ok := s.cas.Delete(key); ok {
		s.casLoc.Drop(key, s.selfName())
		_ = s.store.DeleteBlob(key.String())
	}
	s.casGauges()
}

func (s *Service) casGauges() {
	n, b, _, _ := s.cas.Stats()
	s.casTel.entries.Set(int64(n))
	s.casTel.bytes.Set(b)
}

// restoreCAS re-offers the blobs a recovered WAL says the site held,
// oldest first so the LRU order survives the restart. Called by
// attachStore before the store becomes the site's, so restore is not
// re-journaled.
func (s *Service) restoreCAS(state *store.State) {
	if len(state.CAS) == 0 {
		return
	}
	blobs := make([]store.CASBlob, 0, len(state.CAS))
	for _, b := range state.CAS {
		blobs = append(blobs, b)
	}
	sort.Slice(blobs, func(i, j int) bool { return blobs[i].Added.Before(blobs[j].Added) })
	self := s.selfName()
	for _, b := range blobs {
		actual := b.Actual
		if actual == "" {
			actual = b.Sum
		}
		e := cas.Entry{
			Key: cas.Key{Algo: b.Algo, Sum: b.Sum}, Sum: actual, Size: b.Size,
			MD5: b.MD5, Artifact: b.Artifact, URL: b.URL, Added: b.Added,
		}
		if _, stored := s.cas.Put(e); stored {
			s.casLoc.Note(e.Key, self, e.Added)
		}
	}
	s.casGauges()
}

// ---------------------------------------------------------------------------
// The transfer ladder.

// fetchArtifactVia satisfies one deploy-file transfer step through the
// artifact grid, charging transfer costs against the method's own GridFTP
// client (expect: the site client; cog: the kit's proxied client). The
// ladder is local CAS → advertised holders → rendezvous home (pull-through
// enabled) → origin; every non-local rung verifies the declared checksum
// on ingest.
func (s *Service) fetchArtifactVia(ftp *gridftp.Client, c deployfile.Command) error {
	f := strings.Fields(c.Cmdline)
	if len(f) < 3 {
		return fmt.Errorf("transfer needs source and destination")
	}
	srcURL := f[1]
	dst := strings.TrimPrefix(f[2], "file://")
	algo, sum := deployfile.ChecksumOfStep(c.Step)
	if sum == "" {
		// No declared checksum to key on: the pre-artifact-grid direct
		// path.
		return ftp.FetchSum(srcURL, s.site, dst, algo, sum)
	}
	key := cas.Key{Algo: algo, Sum: sum}
	// Rung 1: the local store. Materialization is a local disk copy — no
	// transfer, no clock cost.
	if e, ok := s.cas.Get(key); ok {
		if e.Sum == key.Sum {
			s.site.FS.Write(dst, site.KindFile, e.Size, e.MD5, e.Artifact)
			s.casTel.hits.Inc()
			s.casTel.bytesSaved.Add(uint64(e.Size))
			return nil
		}
		// The local copy rotted since ingest: purge it and fall through.
		s.casTel.verifyFailures.Inc()
		s.casDrop(key)
	}
	s.casTel.misses.Inc()
	// Rung 2: peers. Known holders first, then the blob's rendezvous home
	// with pull-through — the home fetches from origin once for everyone.
	// Peer calls ride the transport client, so PR 2's retry budget and
	// per-destination breakers already bound how long a dead holder can
	// stall the ladder.
	for _, cand := range s.artifactCandidates(key) {
		if s.fetchFromPeer(ftp, cand.info, key, srcURL, dst, cand.pull) {
			return nil
		}
	}
	// Rung 3: origin.
	if err := ftp.FetchSum(srcURL, s.site, dst, algo, sum); err != nil {
		return err
	}
	s.casTel.originFetches.Inc()
	if e := s.site.FS.Stat(dst); e != nil {
		s.casIngest(cas.Entry{Key: key, Sum: sum, Size: e.Size, MD5: e.MD5, Artifact: e.Artifact, URL: srcURL})
	}
	return nil
}

// artifactCandidate is one remote rung of the ladder.
type artifactCandidate struct {
	info superpeer.SiteInfo
	pull bool // ask the peer to pull-through from origin on its own miss
}

// artifactCandidates orders the remote rungs for one blob: up to
// maxPeerCandidates advertised holders resolvable in the current view,
// then the rendezvous home (unless that is us — then we are the designated
// origin-puller and the ladder falls through).
func (s *Service) artifactCandidates(key cas.Key) []artifactCandidate {
	view := s.view()
	self := s.selfName()
	infos := map[string]superpeer.SiteInfo{}
	for _, m := range view.Group {
		infos[m.Name] = m
	}
	for _, m := range view.SuperPeers {
		if _, ok := infos[m.Name]; !ok {
			infos[m.Name] = m
		}
	}
	if !view.SuperPeer.IsZero() {
		if _, ok := infos[view.SuperPeer.Name]; !ok {
			infos[view.SuperPeer.Name] = view.SuperPeer
		}
	}
	var out []artifactCandidate
	seen := map[string]bool{self: true}
	for _, name := range s.casLoc.Holders(key) {
		if seen[name] || len(out) >= maxPeerCandidates {
			continue
		}
		m, ok := infos[name]
		if !ok {
			continue // advertised by a site outside the reachable view
		}
		seen[name] = true
		out = append(out, artifactCandidate{info: m})
	}
	if home, ok := artifactHome(view, key); ok && !seen[home.Name] {
		out = append(out, artifactCandidate{info: home, pull: true})
	}
	return out
}

// artifactHome elects the blob's rendezvous home among the view's group
// members: highest fnv64(key|name) wins, names break ties, so every member
// of the same epoch-fenced view picks the same site with no coordination.
func artifactHome(v superpeer.View, key cas.Key) (superpeer.SiteInfo, bool) {
	var best superpeer.SiteInfo
	var bestScore uint64
	found := false
	for _, m := range v.Group {
		h := fnv.New64a()
		_, _ = h.Write([]byte(key.String()))
		_, _ = h.Write([]byte{'|'})
		_, _ = h.Write([]byte(m.Name))
		sc := h.Sum64()
		if !found || sc > bestScore || (sc == bestScore && m.Name < best.Name) {
			best, bestScore, found = m, sc, true
		}
	}
	return best, found
}

// fetchFromPeer asks one peer for the blob and, when the served copy
// verifies against the declared checksum, pays the peer-transfer cost and
// ingests it locally. Any failure — unreachable peer, miss, rotted copy —
// drops the stale location and returns false so the ladder moves on.
func (s *Service) fetchFromPeer(ftp *gridftp.Client, peer superpeer.SiteInfo, key cas.Key, srcURL, dst string, pull bool) bool {
	body := xmlutil.NewNode("ArtifactFetch")
	body.SetAttr("algo", key.Algo)
	body.SetAttr("sum", key.Sum)
	body.SetAttr("url", srcURL)
	if pull {
		body.SetAttr("pull", "1")
	}
	resp, err := s.call(context.Background(), nil, peer.ServiceURL(ServiceName), "ArtifactFetch", body)
	if err != nil || resp == nil {
		s.casLoc.Drop(key, peer.Name)
		return false
	}
	size, _ := strconv.ParseInt(resp.AttrOr("size", ""), 10, 64)
	// Verify on ingest: the peer reports the content sum its copy actually
	// has; anything but the declared checksum is rejected.
	if resp.AttrOr("actual", "") != key.Sum || size <= 0 {
		s.casTel.verifyFailures.Inc()
		s.casLoc.Drop(key, peer.Name)
		return false
	}
	md5 := resp.AttrOr("md5", "")
	artifact := resp.AttrOr("artifact", "")
	ftp.PeerCopy(peer.Name, s.site, dst, size, md5, artifact)
	s.casTel.peerFetches.Inc()
	s.casLoc.Note(key, peer.Name, s.hlc.Now())
	s.casIngest(cas.Entry{Key: key, Sum: key.Sum, Size: size, MD5: md5, Artifact: artifact, URL: srcURL})
	return true
}

// ---------------------------------------------------------------------------
// Pull-through (server side of the rendezvous home).

// casPull is one in-flight origin pull; concurrent requesters of the same
// key share the leader's result.
type casPull struct {
	done chan struct{}
	e    cas.Entry
	err  error
}

// casPullThrough fetches the blob from origin into the local CAS exactly
// once no matter how many group members ask concurrently.
func (s *Service) casPullThrough(key cas.Key, url string) (cas.Entry, error) {
	s.casMu.Lock()
	if p, ok := s.casFlight[key]; ok {
		s.casMu.Unlock()
		<-p.done
		return p.e, p.err
	}
	p := &casPull{done: make(chan struct{})}
	s.casFlight[key] = p
	s.casMu.Unlock()
	p.e, p.err = s.casOriginIngest(key, url)
	s.casMu.Lock()
	delete(s.casFlight, key)
	s.casMu.Unlock()
	close(p.done)
	return p.e, p.err
}

// casOriginIngest pulls the blob from origin straight into the CAS (no
// filesystem entry: the home is hosting, not installing).
func (s *Service) casOriginIngest(key cas.Key, url string) (cas.Entry, error) {
	// A racer may have completed between our miss and the flight slot.
	if e, ok := s.cas.Get(key); ok && e.Sum == key.Sum {
		return e, nil
	}
	a, err := s.FTP.Pull(url)
	if err != nil {
		return cas.Entry{}, err
	}
	if got := a.Checksum(key.Algo); got != key.Sum {
		s.casTel.verifyFailures.Inc()
		return cas.Entry{}, &gridftp.ChecksumError{URL: url, Algo: key.Algo, Want: key.Sum, Got: got}
	}
	s.casTel.originFetches.Inc()
	e := cas.Entry{Key: key, Sum: key.Sum, Size: a.SizeBytes, MD5: a.MD5(), Artifact: a.Name, URL: url, Added: s.hlc.Now()}
	s.casIngest(e)
	return e, nil
}

// ---------------------------------------------------------------------------
// Wire ops.

// artifactFetchXML answers one ArtifactFetch: the blob's metadata if held
// (or pulled through from origin when the caller elected us home), a fault
// otherwise. The response's "actual" attribute carries the content sum the
// stored copy really has — the requester does the verification, so a
// rotted copy is advertised honestly and rejected at ingest.
func (s *Service) artifactFetchXML(body *xmlutil.Node) (*xmlutil.Node, error) {
	if body == nil {
		return nil, fmt.Errorf("ArtifactFetch: missing request")
	}
	key := cas.Key{Algo: body.AttrOr("algo", ""), Sum: body.AttrOr("sum", "")}
	if key.IsZero() {
		return nil, fmt.Errorf("ArtifactFetch: needs algo and sum")
	}
	e, ok := s.cas.Get(key)
	if !ok && body.AttrOr("pull", "") == "1" {
		if url := body.AttrOr("url", ""); url != "" {
			pulled, err := s.casPullThrough(key, url)
			if err != nil {
				return nil, fmt.Errorf("ArtifactFetch: pull-through: %w", err)
			}
			e, ok = pulled, true
		}
	}
	if !ok {
		return nil, fmt.Errorf("ArtifactFetch: %s not held", key)
	}
	n := xmlutil.NewNode("Artifact")
	n.SetAttr("algo", e.Key.Algo)
	n.SetAttr("sum", e.Key.Sum)
	n.SetAttr("actual", e.Sum)
	n.SetAttr("size", strconv.FormatInt(e.Size, 10))
	n.SetAttr("md5", e.MD5)
	n.SetAttr("artifact", e.Artifact)
	n.SetAttr("site", s.selfName())
	return n, nil
}

// ArtifactStats is the artifact grid's admin-visible state for one site.
type ArtifactStats struct {
	Site    string
	Entries int
	Bytes   int64
	Budget  int64

	Hits           uint64
	Misses         uint64
	Evictions      uint64
	PeerFetches    uint64
	OriginFetches  uint64
	VerifyFailures uint64
	BytesSaved     uint64
}

// ArtifactStats reports the site's CAS counters and occupancy.
func (s *Service) ArtifactStats() ArtifactStats {
	st := ArtifactStats{Site: s.site.Attrs.Name}
	st.Entries, st.Bytes, st.Budget, _ = s.cas.Stats()
	st.Hits = s.casTel.hits.Value()
	st.Misses = s.casTel.misses.Value()
	st.Evictions = s.casTel.evictions.Value()
	st.PeerFetches = s.casTel.peerFetches.Value()
	st.OriginFetches = s.casTel.originFetches.Value()
	st.VerifyFailures = s.casTel.verifyFailures.Value()
	st.BytesSaved = s.casTel.bytesSaved.Value()
	return st
}

// ArtifactHoldings lists the blobs the site currently holds, key-ordered.
func (s *Service) ArtifactHoldings() []cas.Entry {
	return s.cas.SortedHoldings()
}

// CorruptArtifact flips the stored content sum of one held blob (test
// fault injection: models undetected bit rot on the holder's disk).
func (s *Service) CorruptArtifact(key cas.Key) bool {
	return s.cas.Corrupt(key)
}

// ArtifactStatusXML renders the site's artifact-grid status for the wire —
// the payload of the ArtifactStatus op and of `glarectl artifacts`.
func (s *Service) ArtifactStatusXML() *xmlutil.Node {
	n := xmlutil.NewNode("ArtifactStatus")
	st := s.ArtifactStats()
	n.SetAttr("site", st.Site)
	n.SetAttr("entries", strconv.Itoa(st.Entries))
	n.SetAttr("bytes", strconv.FormatInt(st.Bytes, 10))
	n.SetAttr("budget", strconv.FormatInt(st.Budget, 10))
	n.SetAttr("hits", strconv.FormatUint(st.Hits, 10))
	n.SetAttr("misses", strconv.FormatUint(st.Misses, 10))
	n.SetAttr("evictions", strconv.FormatUint(st.Evictions, 10))
	n.SetAttr("peerFetches", strconv.FormatUint(st.PeerFetches, 10))
	n.SetAttr("originFetches", strconv.FormatUint(st.OriginFetches, 10))
	n.SetAttr("verifyFailures", strconv.FormatUint(st.VerifyFailures, 10))
	n.SetAttr("bytesSaved", strconv.FormatUint(st.BytesSaved, 10))
	for _, e := range s.ArtifactHoldings() {
		b := n.Elem("Blob", "")
		b.SetAttr("algo", e.Key.Algo)
		b.SetAttr("sum", e.Key.Sum)
		b.SetAttr("size", strconv.FormatInt(e.Size, 10))
		b.SetAttr("artifact", e.Artifact)
		if e.Sum != e.Key.Sum {
			b.SetAttr("corrupt", "true")
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Anti-entropy advertisement.

// appendBlobDigest adds one <Blob> element per known (blob, holder)
// location to the registry digest, which the anti-entropy pass exchanges.
func (s *Service) appendBlobDigest(n *xmlutil.Node) {
	for _, loc := range s.casLoc.Snapshot() {
		b := n.Elem("Blob", "")
		b.SetAttr("algo", loc.Key.Algo)
		b.SetAttr("sum", loc.Key.Sum)
		b.SetAttr("site", loc.Site)
		b.SetAttr("lut", loc.LUT.Format(epr.TimeLayout))
	}
}

// mergeBlobDigest folds a remote digest's <Blob> elements into the
// location table (newest advertisement wins; our own holdings are
// authoritative locally and skipped).
func (s *Service) mergeBlobDigest(digest *xmlutil.Node) {
	self := s.selfName()
	for _, n := range digest.All("Blob") {
		key := cas.Key{Algo: n.AttrOr("algo", ""), Sum: n.AttrOr("sum", "")}
		holder := n.AttrOr("site", "")
		lut, perr := time.Parse(epr.TimeLayout, n.AttrOr("lut", ""))
		if key.IsZero() || holder == "" || holder == self || perr != nil {
			continue
		}
		s.casLoc.Note(key, holder, lut)
	}
}
