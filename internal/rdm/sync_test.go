package rdm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/cas"
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

// TestSyncRegistriesPullsNewerEntries: anti-entropy copies no documents.
// A super-peer that runs SyncRegistries against a peer holding a type and
// a deployment caches nothing and clones no ownership; the peer's entries
// stay reachable through ordinary resolution, which alone fills the
// cache. A peer's copy of a name this site also owns never replaces the
// local one.
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
	// Both sides own Contested; A's copy is strictly newer.
	if _, err := b.svc.RegisterType(&activity.Type{Name: "Contested"}); err != nil {
		t.Fatal(err)
	}
	a.svc.clock.(*simclock.Virtual).Advance(time.Minute)
	if _, err := a.svc.RegisterType(&activity.Type{Name: "Contested", Artifact: "newer"}); err != nil {
		t.Fatal(err)
	}

	for _, s := range []*syncSite{a, b, a} {
		s.svc.SyncRegistries()
	}
	for _, s := range sites {
		if n := s.svc.typeCache.Len() + s.svc.depCache.Len(); n != 0 {
			t.Fatalf("%s caches %d entries after anti-entropy, want 0", s.info.Name, n)
		}
	}
	if a.svc.ATR.Len() != 1 || a.svc.ADR.Len() != 0 {
		t.Fatalf("A's registries hold %d types and %d deployments, want only its own Contested",
			a.svc.ATR.Len(), a.svc.ADR.Len())
	}
	if got, ok := a.svc.ATR.Lookup("Contested"); !ok || got.Artifact != "newer" {
		t.Fatalf("A's registry lost its own copy: %+v", got)
	}
	if got, ok := b.svc.ATR.Lookup("Contested"); !ok || got.Artifact != "" {
		t.Fatalf("B's registry took A's copy: %+v", got)
	}

	deps, err := a.svc.GetDeployments("SyncedType", MethodExpect, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || deps[0].Name != "synced-dep" {
		t.Fatalf("post-sync resolution = %+v", deps)
	}
	if a.svc.typeCache.Len()+a.svc.depCache.Len() == 0 {
		t.Fatal("A's own resolution cached nothing")
	}
	if a.svc.ATR.Len() != 1 || a.svc.ADR.Len() != 0 {
		t.Fatal("resolution must not clone ownership into local registries")
	}
}

// TestRegistryDigestShape checks the wire format the reconciler
// exchanges: the site and its known blob locations, and no registry rows.
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
	key := cas.Key{Algo: "sha256", Sum: strings.Repeat("ab", 32)}
	s.svc.casLoc.Note(key, "holder.uibk", time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC))
	d := s.svc.RegistryDigest()
	if d.AttrOr("site", "") != s.info.Name {
		t.Fatalf("digest site = %q", d.AttrOr("site", ""))
	}
	if rows := append(d.All("Type"), d.All("Dep")...); len(rows) != 0 {
		t.Fatalf("digest carries registry rows %v", render(rows))
	}
	blobs := d.All("Blob")
	if len(blobs) != 1 || blobs[0].AttrOr("algo", "") != key.Algo || blobs[0].AttrOr("sum", "") != key.Sum ||
		blobs[0].AttrOr("site", "") != "holder.uibk" || blobs[0].AttrOr("lut", "") != "2005-11-12T00:00:00Z" {
		t.Fatalf("digest blobs = %v", render(blobs))
	}
}

func render(ns []*xmlutil.Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.String())
	}
	return out
}
