package rdm

import (
	"fmt"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/mds"
	"glare/internal/simclock"
	"glare/internal/site"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/workload"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

// syncSite is one networked RDM stack for anti-entropy tests.
type syncSite struct {
	svc   *Service
	agent *superpeer.Agent
	info  superpeer.SiteInfo
	tel   *telemetry.Telemetry
}

// newSyncSites builds n full sites on loopback sharing one virtual clock,
// each the super-peer of its own single-member group (the shape two sides
// of a healed partition are left in), with every site in the super-group.
func newSyncSites(t *testing.T, n int) []*syncSite {
	t.Helper()
	clock := simclock.NewVirtual(time.Time{})
	var sites []*syncSite
	var infos []superpeer.SiteInfo
	for i := 0; i < n; i++ {
		st := site.New(site.Attributes{
			Name: fmt.Sprintf("sync%02d.uibk", i), ProcessorMHz: 1500, MemoryMB: 2048,
			Platform: "Intel", OS: "Linux", Arch: "32bit",
		}, clock, site.StandardUniverse())
		srv := transport.NewServer()
		if err := srv.Start("127.0.0.1:0", nil); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		info := superpeer.SiteInfo{Name: st.Attrs.Name, Rank: uint64(1000 + i), BaseURL: srv.BaseURL()}
		cli := transport.NewClient(nil)
		agent := superpeer.NewAgent(info, cli, wsrf.NewBroker(nil))
		tel := telemetry.New(info.Name)
		resolver := workload.NewResolver(st.Repo)
		svc, err := New(Config{
			Site: st, Clock: clock, Client: cli, Agent: agent,
			LocalIndex:  mds.New("index-"+info.Name, mds.DefaultIndex, clock),
			DeployFiles: resolver.Fetch, Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Stop)
		svc.Mount(srv)
		sites = append(sites, &syncSite{svc: svc, agent: agent, info: info, tel: tel})
		infos = append(infos, info)
	}
	// Every site reigns over itself; all of them form the super-group.
	admin := transport.NewClient(nil)
	for i, s := range sites {
		v := superpeer.View{
			Epoch:      1,
			Group:      []superpeer.SiteInfo{infos[i]},
			SuperPeer:  infos[i],
			SuperPeers: infos,
		}
		if _, err := admin.Call(s.info.PeerURL(), "GroupAssign", v.ToXML()); err != nil {
			t.Fatal(err)
		}
	}
	return sites
}

// TestSyncRegistriesPullsNewerEntries is the anti-entropy core: a type and
// a deployment registered on one super-peer become resolvable on another
// after one SyncRegistries pass, without re-registering anything.
func TestSyncRegistriesPullsNewerEntries(t *testing.T) {
	sites := newSyncSites(t, 2)
	a, b := sites[0], sites[1]

	if _, err := b.svc.RegisterType(&activity.Type{Name: "SyncedType"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.svc.RegisterDeployment(&activity.Deployment{
		Name: "synced-dep", Type: "SyncedType", Kind: activity.KindExecutable,
		Path: "/opt/sync/bin/synced-dep",
	}); err != nil {
		t.Fatal(err)
	}

	pulled := a.svc.SyncRegistries()
	if pulled != 2 {
		t.Fatalf("pulled = %d, want 2 (one type, one deployment)", pulled)
	}
	if n := a.tel.Counter("glare_sync_entries_pulled_total").Value(); n != 2 {
		t.Fatalf("glare_sync_entries_pulled_total = %d, want 2", n)
	}

	// The pulled entries landed in the two-level cache (not the local
	// registries: site B stays the owner), so ordinary resolution finds
	// them without any further network round.
	if _, ok := a.svc.typeCache.Peek("type:SyncedType"); !ok {
		t.Fatal("type not cached")
	}
	if _, ok := a.svc.depCache.Peek("dep:synced-dep"); !ok {
		t.Fatal("deployment not cached")
	}
	if a.svc.ATR.Len() != 0 || a.svc.ADR.Len() != 0 {
		t.Fatal("anti-entropy must not clone ownership into local registries")
	}
	deps, err := a.svc.GetDeployments("SyncedType", MethodExpect, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || deps[0].Name != "synced-dep" {
		t.Fatalf("post-sync resolution = %+v", deps)
	}

	// A second pass is a no-op: everything is already at the same
	// LastUpdateTime.
	if again := a.svc.SyncRegistries(); again != 0 {
		t.Fatalf("idempotent re-sync pulled %d entries", again)
	}
}

// TestSyncRegistriesSkipsOlderEntries: a site holding the newer version of
// an entry must not have it clobbered by a peer's older copy.
func TestSyncRegistriesSkipsOlderEntries(t *testing.T) {
	sites := newSyncSites(t, 2)
	a, b := sites[0], sites[1]

	// Both sides own the same type name; A's copy is strictly newer.
	if _, err := b.svc.RegisterType(&activity.Type{Name: "Contested"}); err != nil {
		t.Fatal(err)
	}
	a.svc.clock.(*simclock.Virtual).Advance(time.Minute)
	if _, err := a.svc.RegisterType(&activity.Type{Name: "Contested", Artifact: "newer"}); err != nil {
		t.Fatal(err)
	}

	if pulled := a.svc.SyncRegistries(); pulled != 0 {
		t.Fatalf("pulled %d entries over a newer local copy", pulled)
	}
	got, ok := a.svc.ATR.Lookup("Contested")
	if !ok || got.Artifact != "newer" {
		t.Fatalf("local registry lost the newer copy: %+v", got)
	}
	// B, running its own pass, pulls A's newer version into its cache.
	if pulled := b.svc.SyncRegistries(); pulled != 1 {
		t.Fatalf("older side pulled %d entries, want 1", pulled)
	}
	e, ok := b.svc.typeCache.Peek("type:Contested")
	if !ok {
		t.Fatal("newer version not cached on the older side")
	}
	if ty, err := activity.TypeFromXML(e.Doc); err != nil || ty.Artifact != "newer" {
		t.Fatalf("cached version = %+v (%v)", e.Doc, err)
	}
}

// TestRegistryDigestShape checks the wire format the reconciler exchanges.
func TestRegistryDigestShape(t *testing.T) {
	sites := newSyncSites(t, 1)
	s := sites[0]
	if _, err := s.svc.RegisterType(&activity.Type{Name: "DigestType"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.RegisterDeployment(&activity.Deployment{
		Name: "digest-dep", Type: "DigestType", Kind: activity.KindExecutable, Path: "/opt/d",
	}); err != nil {
		t.Fatal(err)
	}
	d := s.svc.RegistryDigest()
	if d.AttrOr("site", "") != s.info.Name {
		t.Fatalf("digest site = %q", d.AttrOr("site", ""))
	}
	types, deps := d.All("Type"), d.All("Dep")
	if len(types) != 1 || types[0].AttrOr("name", "") != "DigestType" || types[0].AttrOr("lut", "") == "" {
		t.Fatalf("digest types = %v", render(types))
	}
	if len(deps) != 1 || deps[0].AttrOr("name", "") != "digest-dep" ||
		deps[0].AttrOr("type", "") != "DigestType" || deps[0].AttrOr("lut", "") == "" {
		t.Fatalf("digest deps = %v", render(deps))
	}
}

func render(ns []*xmlutil.Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.String())
	}
	return out
}
