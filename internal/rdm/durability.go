package rdm

import (
	"strconv"
	"time"

	"glare/internal/activity"
	"glare/internal/lease"
	"glare/internal/replicate"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

// siteJournal is the site's one journaling point, bound once to the ATR
// and ADR homes and the lease service (bindJournal). Each mutation is
// appended to the store, then fanned out to the replica set, whose write
// quorum counts the owner's copy only when that append returned nil. A
// memory-only site has no store (its in-memory copy counts); a site with
// ReplicaK ≤ 1 has no replicator. Deploy checkpoints, history and CAS
// records are site-local and go to s.store directly, dropping the append
// error: it changes nothing those callers do, and the store keeps it,
// counts it and shows it in Status.
type siteJournal struct {
	st   *store.Store
	repl *replicate.Replicator
	// now is the site's HLC. A lease grant replicates with an HLC stamp,
	// not the ticket's physical-clock Start, so its release tombstone
	// (also HLC-stamped) orders after it however skewed the site's clock.
	now func() time.Time
}

// bindJournal binds the site journal. New calls it once, after
// attachStore restored what the store recovered.
func (s *Service) bindJournal() {
	j := &siteJournal{st: s.store, repl: s.repl, now: s.hlc.Now}
	s.ATR.Home().SetJournal(registryJournal{j, store.RegATR})
	s.ADR.Home().SetJournal(registryJournal{j, store.RegADR})
	s.Leases.SetJournal(j)
}

// registryJournal is the site journal as one registry home sees it. The
// store encodes the home's live document in place; the replicator copies
// it for the fan-out.
type registryJournal struct {
	*siteJournal
	reg string
}

func (j registryJournal) RecordPut(key string, doc *xmlutil.Node, lut, term time.Time) {
	err := j.st.PutEntry(j.reg, key, doc, lut, term)
	j.repl.ForwardPut(j.reg, key, doc, lut, term, err == nil)
}

func (j registryJournal) RecordDelete(key string) {
	err := j.st.DeleteEntry(j.reg, key)
	j.repl.ForwardDelete(j.reg, key, err == nil)
}

// RecordAcquire and RecordRelease build the ticket's wire form only when
// there is a replicator to ship it.
func (j *siteJournal) RecordAcquire(t lease.Ticket) {
	err := j.st.AcquireLease(t)
	if j.repl != nil {
		j.repl.ForwardPut(store.RegLease, strconv.FormatUint(t.ID, 10), leaseTicketDoc(t), j.now(), t.End, err == nil)
	}
}

func (j *siteJournal) RecordRelease(id uint64) {
	err := j.st.ReleaseLease(id)
	if j.repl != nil {
		j.repl.ForwardDelete(store.RegLease, strconv.FormatUint(id, 10), err == nil)
	}
}

// RecordLimit keeps shared-lease limits site-local: they are operator
// configuration, not acknowledged client state.
func (j *siteJournal) RecordLimit(deployment string, max int) { _ = j.st.LimitLease(deployment, max) }

// attachStore replays the store's recovered state into the site — the
// registries' homes, the replica holder's shadow registries
// ("replica:<origin>:<reg>") and the lease service — through their
// Restore paths, which bypass counters, notifications, validation and the
// journal, so recovery is not observable as registration traffic; then
// the store becomes the site's. Registry documents come back with their
// journaled LastUpdateTimes (cache revival and anti-entropy order on
// them); expired lease tickets are dropped — the deployment returns to
// the pool — but every journaled ticket ID is retired so a restarted site
// never reissues an ID a client may still hold. Entries whose documents
// no longer parse are skipped: recovery prefers a smaller correct registry
// over a boot failure. Telemetry history needs no replay: the site
// samples into the store's own rings (New).
func (s *Service) attachStore(st *store.Store) {
	st.SetTelemetry(s.tel)
	state := st.State()
	homes := map[string]*wsrf.Home{store.RegATR: s.ATR.Home(), store.RegADR: s.ADR.Home()}
	for name, entries := range state.Registries {
		home := homes[name]
		origin, reg, replica := parseReplicaReg(name)
		if home == nil && (!replica || s.repl == nil) {
			continue
		}
		for key, e := range entries {
			doc, err := xmlutil.ParseString(e.Doc)
			switch {
			case err != nil: // skipped, as above
			case home != nil:
				home.Restore(key, doc, e.LUT, e.Term)
			default:
				s.repl.Holder().Restore(origin, reg, replicate.Entry{Key: key, Doc: doc, LUT: e.LUT, Term: e.Term})
			}
		}
	}
	for _, t := range state.Leases.Tickets {
		s.Leases.Restore(t)
	}
	for dep, max := range state.Leases.Limits {
		s.Leases.RestoreLimit(dep, max)
	}
	s.Leases.RetireID(state.Leases.MaxID)

	// The simulated site filesystem is memory-only (DESIGN §10), so a
	// restart loses every installed file. Registered deployments are
	// re-materialized from the recovered ADR — executables back onto the
	// filesystem, services back into the container — or resumed builds that
	// depend on them (a JPOVray build invoking ant) would fail.
	for _, d := range s.ADR.All() {
		switch d.Kind {
		case activity.KindExecutable:
			if d.Path != "" {
				s.site.FS.Write(d.Path, site.KindExecutable, 1<<20, "", "")
			}
		case activity.KindService:
			s.site.DeployService(d.Name, d.Home)
		}
	}

	// Interrupted builds: their checkpointed steps come back verbatim; the
	// next DeployLocal of the type replays them and resumes at the first
	// incomplete step.
	for typeName, steps := range state.Deploys {
		if len(steps) > 0 {
			s.resume[typeName] = append([]store.DeployStep(nil), steps...)
		}
	}

	// Content-addressed artifact store: re-offer every blob the WAL says
	// this site held, so a restarted site resumes builds (and serves
	// peers) without re-fetching a byte.
	s.restoreCAS(state)
	s.store = st
}

// Store returns the site's durable store, or nil when durability is off.
func (s *Service) Store() *store.Store { return s.store }

// StoreStatusXML renders the store's status for the wire — the payload of
// the RDM "StoreStatus" operation and of `glarectl store status`.
func (s *Service) StoreStatusXML() *xmlutil.Node {
	n := xmlutil.NewNode("StoreStatus")
	n.SetAttr("site", s.site.Attrs.Name)
	if s.store == nil {
		n.SetAttr("enabled", "false")
		return n
	}
	st := s.store.Status()
	n.SetAttr("enabled", "true")
	n.SetAttr("dir", st.Dir)
	n.SetAttr("lastSeq", strconv.FormatUint(st.LastSeq, 10))
	n.SetAttr("walBytes", strconv.FormatInt(st.WALBytes, 10))
	n.SetAttr("liveRecords", strconv.Itoa(st.LiveRecords))
	n.SetAttr("snapshot", strconv.FormatBool(st.HasSnapshot))
	n.SetAttr("snapshotSeq", strconv.FormatUint(st.SnapshotSeq, 10))
	n.SetAttr("snapshotRecords", strconv.Itoa(st.SnapshotRecords))
	n.SetAttr("snapshotAgeSeconds", strconv.FormatInt(int64(st.SnapshotAge.Seconds()), 10))
	n.SetAttr("replayMs", strconv.FormatInt(st.ReplayDuration.Milliseconds(), 10))
	n.SetAttr("replayRecords", strconv.Itoa(st.ReplayRecords))
	n.SetAttr("truncatedBytes", strconv.FormatInt(st.TruncatedBytes, 10))
	n.SetAttr("appended", strconv.FormatUint(st.Appended, 10))
	if st.Err != "" {
		n.SetAttr("err", st.Err)
	}
	return n
}
