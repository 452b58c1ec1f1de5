package rdm

import (
	"errors"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/lease"
	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/store"
	"glare/internal/workload"
)

// durableSingle builds a standalone single-site RDM journaling into dir.
func durableSingle(t *testing.T, dir string, v *simclock.Virtual) *Service {
	t.Helper()
	durable, err := store.Open(store.Options{Dir: dir, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	return bootDurable(t, durable, v, HistoryConfig{})
}

// bootDurable builds a standalone single-site RDM over an opened store.
func bootDurable(t *testing.T, durable *store.Store, v *simclock.Virtual, hist HistoryConfig) *Service {
	t.Helper()
	st := site.New(site.Attributes{
		Name: "solo.uibk", ProcessorMHz: 1500, MemoryMB: 2048,
		Platform: "Intel", OS: "Linux", Arch: "32bit",
	}, v, site.StandardUniverse())
	cfg := soloConfig(st, v)
	cfg.DeployFiles = workload.NewResolver(st.Repo).Fetch
	cfg.Store = durable
	cfg.History = hist
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return svc
}

// TestRDMRecoversRegistriesAndLeases restarts a site's RDM against the
// same data directory and proves types, deployments (documents, LUTs,
// termination times) and the unexpired lease all survive — with zero
// re-registration traffic on the recovered service.
func TestRDMRecoversRegistriesAndLeases(t *testing.T) {
	dir := t.TempDir()
	v := simclock.NewVirtual(time.Time{})

	s1 := durableSingle(t, dir, v)
	for _, ty := range workload.ImagingTypes() {
		if _, err := s1.RegisterType(ty); err != nil {
			t.Fatal(err)
		}
	}
	d := &activity.Deployment{
		Name: "jpovray", Type: "JPOVray", Kind: activity.KindExecutable,
		Path: "/opt/jpovray/bin/jpovray",
	}
	if _, err := s1.RegisterDeployment(d); err != nil {
		t.Fatal(err)
	}
	wantTerm := v.Now().Add(24 * time.Hour)
	if err := s1.ADR.SetTermination("jpovray", wantTerm); err != nil {
		t.Fatal(err)
	}
	tk, err := s1.Leases.Acquire("jpovray", "sched-1", lease.Exclusive, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := s1.ATR.Names()
	wantLUT, _ := s1.ADR.LUT("jpovray")
	s1.Stop() // flushes and closes the store

	// The site restarts 10 virtual minutes later: inside the lease window.
	v.Advance(10 * time.Minute)
	s2 := durableSingle(t, dir, v)

	gotTypes := s2.ATR.Names()
	if len(gotTypes) != len(wantTypes) {
		t.Fatalf("types after restart = %v, want %v", gotTypes, wantTypes)
	}
	for i := range wantTypes {
		if gotTypes[i] != wantTypes[i] {
			t.Fatalf("types after restart = %v, want %v", gotTypes, wantTypes)
		}
	}
	rd, ok := s2.ADR.Get("jpovray")
	if !ok || rd.Type != "JPOVray" || rd.Path != "/opt/jpovray/bin/jpovray" {
		t.Fatalf("deployment after restart = %+v ok=%v", rd, ok)
	}
	// The journaled LastUpdateTime is reproduced exactly, not re-stamped.
	if gotLUT, _ := s2.ADR.LUT("jpovray"); !gotLUT.Equal(wantLUT) {
		t.Fatalf("LUT after restart = %v, want %v", gotLUT, wantLUT)
	}
	// The termination time survived too: advancing past it expires the
	// recovered resource like it would have the original.
	if res := s2.ADR.Home().Find("jpovray"); res == nil ||
		!res.TerminationTime().Equal(wantTerm) {
		t.Fatal("termination time lost in recovery")
	}
	// The unexpired lease is still held by its client…
	if _, err := s2.Leases.Acquire("jpovray", "rival", lease.Exclusive, time.Hour); !errors.Is(err, lease.ErrConflict) {
		t.Fatalf("revived lease not enforced: %v", err)
	}
	if err := s2.Leases.Authorize(tk.ID, "sched-1", "jpovray"); err != nil {
		t.Fatalf("revived ticket authorize = %v", err)
	}
	// …and recovery generated zero registration traffic.
	for _, name := range []string{"glare_atr_registers_total", "glare_adr_registers_total"} {
		if n := s2.Telemetry().Counter(name).Value(); n != 0 {
			t.Fatalf("%s = %d after replay, want 0", name, n)
		}
	}
	// The recovered service keeps journaling: a mutation lands at the next
	// sequence number, not at 1.
	before := s2.Store().Status().LastSeq
	if _, err := s2.RegisterType(&activity.Type{Name: "PostCrash"}); err != nil {
		t.Fatal(err)
	}
	if after := s2.Store().Status().LastSeq; after != before+1 {
		t.Fatalf("seq %d -> %d after one mutation", before, after)
	}
}

// TestRDMExpiredLeaseFreesPoolAfterRestart: the lease lapses while the
// site is down; after replay the deployment is leasable again.
func TestRDMExpiredLeaseFreesPoolAfterRestart(t *testing.T) {
	dir := t.TempDir()
	v := simclock.NewVirtual(time.Time{})

	s1 := durableSingle(t, dir, v)
	if _, err := s1.RegisterDeployment(&activity.Deployment{
		Name: "wien2k", Type: "Wien2k", Kind: activity.KindExecutable,
		Path: "/opt/wien2k/bin/wien2k",
	}); err != nil {
		t.Fatal(err)
	}
	old, err := s1.Leases.Acquire("wien2k", "c1", lease.Exclusive, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s1.Stop()

	v.Advance(3 * time.Hour) // the lease dies while the site is down
	s2 := durableSingle(t, dir, v)
	nt, err := s2.Leases.Acquire("wien2k", "c2", lease.Exclusive, time.Hour)
	if err != nil {
		t.Fatalf("expired lease still blocks the pool: %v", err)
	}
	if nt.ID <= old.ID {
		t.Fatalf("ticket ID %d reissued at or below retired %d", nt.ID, old.ID)
	}
}

// TestRDMStoreStatusXML covers both the memory-only and durable answers
// of the StoreStatus wire operation.
func TestRDMStoreStatusXML(t *testing.T) {
	mem, _ := single(t)
	n := mem.StoreStatusXML()
	if n.AttrOr("enabled", "") != "false" {
		t.Fatalf("memory-only StoreStatus = %s", n)
	}

	dir := t.TempDir()
	v := simclock.NewVirtual(time.Time{})
	dur := durableSingle(t, dir, v)
	if _, err := dur.RegisterType(&activity.Type{Name: "Solo"}); err != nil {
		t.Fatal(err)
	}
	n = dur.StoreStatusXML()
	if n.AttrOr("enabled", "") != "true" {
		t.Fatalf("durable StoreStatus = %s", n)
	}
	if n.AttrOr("liveRecords", "0") != "1" || n.AttrOr("lastSeq", "0") != "1" {
		t.Fatalf("StoreStatus counters = %s", n)
	}
}

// TestDurableSiteHasOneHistory: a durable site samples into the rings its
// store recovered; there is no second rrd.Store to keep in step.
func TestDurableSiteHasOneHistory(t *testing.T) {
	svc := durableSingle(t, t.TempDir(), simclock.NewVirtual(time.Time{}))
	if svc.History() != svc.Store().History() {
		t.Fatal("site history and store history are different stores")
	}
	if svc.Store().State().History != svc.History() {
		t.Fatal("State() copied the history instead of sharing it")
	}
	svc.SampleTelemetry()
	if svc.History().Len() == 0 || svc.Store().Status().LiveRecords < svc.History().Len() {
		t.Fatalf("sampled %d series, store counts %d live records",
			svc.History().Len(), svc.Store().Status().LiveRecords)
	}
}
