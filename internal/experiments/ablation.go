package experiments

import (
	"fmt"
	"io"
	"time"

	"glare/internal/activity"
	"glare/internal/rdm"
	"glare/internal/simclock"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/vo"
	"glare/internal/xmlutil"
)

// AblationPoint is one design-choice comparison.
type AblationPoint struct {
	Name    string
	Variant string
	Value   float64 // mean latency in ms (lower is better)
}

// RunAblationOverlay compares remote deployment discovery through the
// super-peer overlay (local → group peers → super-peer forwarding) against
// a flat broadcast in which the client queries every site in the VO
// directly. The overlay is GLARE's scalability argument: the client needs
// no global knowledge, and with caching at peers and super-peers most
// queries never leave the group.
func RunAblationOverlay(sites, entries, requests int) ([]AblationPoint, error) {
	v, err := vo.Build(vo.Options{
		Sites:     sites,
		GroupSize: (sites + 1) / 2, // force at least two groups
		Clock:     simclock.Real,
		CacheTTL:  time.Hour,
	})
	if err != nil {
		return nil, err
	}
	defer v.Close()
	if err := v.ElectSuperPeers(); err != nil {
		return nil, err
	}
	// Spread entries over every site but the client's.
	for i := 0; i < entries; i++ {
		holder := v.Nodes[1+i%(sites-1)]
		d := &activity.Deployment{
			Name: fmt.Sprintf("abl-%04d", i), Type: "AblApp",
			Kind: activity.KindExecutable, Site: holder.Info.Name,
			Path: fmt.Sprintf("/opt/abl/bin/abl-%04d", i),
		}
		if _, err := holder.RDM.RegisterDeployment(d); err != nil {
			return nil, err
		}
	}
	client := v.Nodes[0].RDM

	var overlay telemetry.Histogram
	// Warm-up resolves types and populates caches along the overlay path.
	if _, err := client.GetDeployments("AblApp", rdm.MethodExpect, false); err != nil {
		return nil, err
	}
	for r := 0; r < requests; r++ {
		t0 := time.Now()
		if _, err := client.GetDeployments("AblApp", rdm.MethodExpect, false); err != nil {
			return nil, err
		}
		overlay.Observe(time.Since(t0))
	}

	// Flat broadcast: the client must know and query every site directly.
	var flat telemetry.Histogram
	for r := 0; r < requests; r++ {
		t0 := time.Now()
		total := 0
		req := xmlutil.NewNode("Resolve").SetAttr("name", "AblApp").SetAttr("scope", "site")
		for _, n := range v.Nodes[1:] {
			resp, err := v.Client.Call(n.Info.ServiceURL(rdm.ServiceName), "Resolve", req)
			if err != nil {
				return nil, err
			}
			total += len(resp.All("ActivityDeployment"))
		}
		if total != entries {
			return nil, fmt.Errorf("flat broadcast saw %d entries, want %d", total, entries)
		}
		flat.Observe(time.Since(t0))
	}
	return []AblationPoint{
		{Name: "overlay-vs-flat", Variant: "super-peer overlay (cached)",
			Value: float64(overlay.Mean().Microseconds()) / 1000},
		{Name: "overlay-vs-flat", Variant: "flat broadcast",
			Value: float64(flat.Mean().Microseconds()) / 1000},
	}, nil
}

// RunAblationCache compares repeated deployment lookups from a remote
// client site with the two-level cache enabled and disabled (the design
// choice behind Fig. 12's cached series).
func RunAblationCache(entries, requests int) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, cacheOn := range []bool{true, false} {
		v, err := vo.Build(vo.Options{
			Sites: 2, GroupSize: 2,
			Clock:         simclock.Real,
			CacheDisabled: !cacheOn,
			CacheTTL:      time.Hour,
		})
		if err != nil {
			return nil, err
		}
		if err := v.ElectSuperPeers(); err != nil {
			v.Close()
			return nil, err
		}
		for i := 0; i < entries; i++ {
			d := &activity.Deployment{
				Name: fmt.Sprintf("c-%04d", i), Type: "CacheApp",
				Kind: activity.KindExecutable, Site: v.Nodes[1].Info.Name,
				Path: fmt.Sprintf("/opt/c/bin/c-%04d", i),
			}
			if _, err := v.Nodes[1].RDM.RegisterDeployment(d); err != nil {
				v.Close()
				return nil, err
			}
		}
		client := v.Nodes[0].RDM
		if _, err := client.GetDeployments("CacheApp", rdm.MethodExpect, false); err != nil {
			v.Close()
			return nil, err
		}
		var rec telemetry.Histogram
		for r := 0; r < requests; r++ {
			t0 := time.Now()
			if _, err := client.GetDeployments("CacheApp", rdm.MethodExpect, false); err != nil {
				v.Close()
				return nil, err
			}
			rec.Observe(time.Since(t0))
		}
		v.Close()
		variant := "cache off"
		if cacheOn {
			variant = "cache on"
		}
		out = append(out, AblationPoint{
			Name: "two-level-cache", Variant: variant,
			Value: float64(rec.Mean().Microseconds()) / 1000,
		})
	}
	return out, nil
}

// ElectionStats summarizes a super-peer election run (self-management
// characterization rather than a paper figure).
type ElectionStats struct {
	Sites      int
	GroupSize  int
	SuperPeers int
	Elapsed    time.Duration
}

// RunElection measures election time and resulting structure for a VO.
func RunElection(sites, groupSize int) (ElectionStats, error) {
	st := ElectionStats{Sites: sites, GroupSize: groupSize}
	v, err := vo.Build(vo.Options{Sites: sites, GroupSize: groupSize, Clock: simclock.Real})
	if err != nil {
		return st, err
	}
	defer v.Close()
	t0 := time.Now()
	if err := v.ElectSuperPeers(); err != nil {
		return st, err
	}
	st.Elapsed = time.Since(t0)
	for _, n := range v.Nodes {
		if n.Agent.Role() == superpeer.RoleSuperPeer {
			st.SuperPeers++
		}
	}
	return st, nil
}

// PrintAblation renders ablation points.
func PrintAblation(w io.Writer, pts []AblationPoint) {
	fmt.Fprintln(w, "\nAblations — design-choice comparisons (mean ms/request)")
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.Name, p.Variant, fmt.Sprintf("%.2f", p.Value)})
	}
	writeTable(w, []string{"Ablation", "Variant", "Mean ms"}, rows)
}
