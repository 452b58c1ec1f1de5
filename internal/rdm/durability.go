package rdm

import (
	"strconv"

	"glare/internal/activity"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/xmlutil"
)

// attachStore wires the durable store under the site's mutation paths.
// Order matters: the recovered state is replayed into the registries'
// homes and the lease service first — through the Restore paths, which
// bypass counters, notifications, validation and the journal itself — and
// only then are the journals bound, so replay is never re-journaled and
// recovery is not observable as registration traffic. It returns the
// recovered state it replayed, for the replica holder's restore.
func (s *Service) attachStore(st *store.Store) *store.State {
	s.store = st
	st.SetTelemetry(s.tel)
	state := st.State()
	s.restoreFromStore(state)
	s.ATR.Home().SetJournal(st.RegistryJournal(store.RegATR))
	s.ADR.Home().SetJournal(st.RegistryJournal(store.RegADR))
	s.Leases.SetJournal(st.LeaseJournal())
	s.deployJournal = st.DeployJournal()
	s.historyJournal = st.HistoryJournal()
	s.casJournal = st.CASJournal()
	return state
}

// restoreFromStore replays a recovered journal state into the site's
// registries and lease service. Registry documents come back with their
// journaled LastUpdateTimes (cache revival and anti-entropy order on
// them); expired lease tickets are dropped — the deployment returns to
// the pool — but every journaled ticket ID is retired so a restarted site
// never reissues an ID a client may still hold. Entries whose documents
// no longer parse are skipped: recovery prefers a smaller correct registry
// over a boot failure. Telemetry history needs no replay: the site
// samples into the store's own rings (New).
func (s *Service) restoreFromStore(state *store.State) {
	for key, e := range state.Registries[store.RegATR] {
		doc, err := xmlutil.ParseString(e.Doc)
		if err != nil {
			continue
		}
		s.ATR.Home().Restore(key, doc, e.LUT, e.Term)
	}
	for key, e := range state.Registries[store.RegADR] {
		doc, err := xmlutil.ParseString(e.Doc)
		if err != nil {
			continue
		}
		s.ADR.Home().Restore(key, doc, e.LUT, e.Term)
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
	n.SetAttr("segments", strconv.Itoa(st.Segments))
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
