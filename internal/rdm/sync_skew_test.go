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
)

// newSkewedSyncSites is newSyncSites with each site reading time through
// its own skewed view of the shared virtual base clock: site i is
// displaced by offsets[i] (missing entries read true). Transports carry
// HLC stamps both ways, exactly like the VO builder wires them.
func newSkewedSyncSites(t *testing.T, n int, offsets map[int]time.Duration) []*syncSite {
	t.Helper()
	base := simclock.NewVirtual(time.Time{})
	var sites []*syncSite
	var infos []superpeer.SiteInfo
	for i := 0; i < n; i++ {
		view := simclock.NewSkewed(base)
		if off, ok := offsets[i]; ok {
			view.SetOffset(off)
		}
		st := site.New(site.Attributes{
			Name: fmt.Sprintf("skew%02d.uibk", i), ProcessorMHz: 1500, MemoryMB: 2048,
			Platform: "Intel", OS: "Linux", Arch: "32bit",
		}, view, site.StandardUniverse())
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
			Site: st, Clock: view, Client: cli, Agent: agent,
			LocalIndex:  mds.New("index-"+info.Name, mds.DefaultIndex, view),
			DeployFiles: resolver.Fetch, Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Stop)
		cli.SetHLC(svc.HLC())
		srv.SetHLC(svc.HLC())
		svc.Mount(srv)
		sites = append(sites, &syncSite{svc: svc, agent: agent, info: info, tel: tel})
		infos = append(infos, info)
	}
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

// TestSyncConvergesUnderTenMinuteSkew: two sites register the same type
// name while their wall clocks disagree by 20 minutes (one −10m, one
// +10m), then every site runs anti-entropy. Neither owner loses its own
// copy. Then the slow site, having exchanged digests with the fast one,
// registers a follow-up: despite its wall clock sitting 10 minutes in the
// past, the follow-up's stamp must order after everything it has seen
// (the HLC causality guarantee that raw wall clocks break).
func TestSyncConvergesUnderTenMinuteSkew(t *testing.T) {
	sites := newSkewedSyncSites(t, 3, map[int]time.Duration{
		0: -10 * time.Minute,
		1: +10 * time.Minute,
		// site 2 reads true time and owns nothing: the neutral observer.
	})
	slow, fast, observer := sites[0], sites[1], sites[2]

	if _, err := slow.svc.RegisterType(&activity.Type{Name: "Contested", Artifact: "from-slow"}); err != nil {
		t.Fatal(err)
	}
	if _, err := fast.svc.RegisterType(&activity.Type{Name: "Contested", Artifact: "from-fast"}); err != nil {
		t.Fatal(err)
	}

	// Every site runs anti-entropy, in different orders, twice.
	for round := 0; round < 2; round++ {
		observer.svc.SyncRegistries()
		slow.svc.SyncRegistries()
		fast.svc.SyncRegistries()
		observer.svc.SyncRegistries()
	}

	// Each owner's local registry still holds its own version.
	if got, ok := slow.svc.ATR.Lookup("Contested"); !ok || got.Artifact != "from-slow" {
		t.Fatalf("slow site's local registry = %+v ok=%v", got, ok)
	}
	if got, ok := fast.svc.ATR.Lookup("Contested"); !ok || got.Artifact != "from-fast" {
		t.Fatalf("fast site's local registry = %+v ok=%v", got, ok)
	}

	// Causality across skew: the slow site has now observed the fast
	// site's stamps; anything it registers next must order after them,
	// even though its wall clock is 10 minutes behind the fast site's.
	if _, err := slow.svc.RegisterType(&activity.Type{Name: "Followup"}); err != nil {
		t.Fatal(err)
	}
	followupLUT, ok := slow.svc.ATR.LUT("Followup")
	if !ok {
		t.Fatal("follow-up registration has no LUT")
	}
	contestedLUT, ok := fast.svc.ATR.LUT("Contested")
	if !ok {
		t.Fatal("contested registration has no LUT")
	}
	if !followupLUT.After(contestedLUT) {
		t.Fatalf("follow-up on the slow site stamped %v, before the fast site's %v it had already seen — wall-clock ordering leaked through",
			followupLUT, contestedLUT)
	}

	// Skew surveillance saw the disagreement: both skewed sites observed
	// peer stamps beyond the alarm bound, and the gauges publish the worst
	// observation.
	if n := slow.tel.Counter("glare_clock_skew_detected_total").Value(); n == 0 {
		t.Fatal("slow site detected no skew after exchanging 20-minute-disagreeing stamps")
	}
	if peer, off := slow.svc.CheckClockSkew(); peer == "" || off <= 0 {
		t.Fatalf("slow site's worst peer offset = (%q, %v), want a positive offset against a named peer", peer, off)
	}
	if g := slow.tel.Gauge("glare_clock_offset_ms").Value(); g <= 0 {
		t.Fatalf("glare_clock_offset_ms = %d after CheckClockSkew, want > 0", g)
	}
}
