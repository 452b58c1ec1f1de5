package experiments

import (
	"fmt"
	"io"
	"time"

	"glare/internal/activity"
	"glare/internal/rdm"
	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/vo"
)

// Fig12Point is one configuration's mean response time.
type Fig12Point struct {
	Sites        int // entry-holding sites
	Cache        bool
	Entries      int
	Requests     int
	MeanResponse time.Duration
}

// Fig12Config parameterizes the response-time experiment.
type Fig12Config struct {
	// SiteCounts is the sweep of entry-holding site counts (paper: 1,3,7).
	SiteCounts []int
	// Entries is the total number of deployment entries, spread equally
	// over the sites.
	Entries int
	// Requests is the number of measured requests per configuration.
	Requests int
}

// DefaultFig12 mirrors the paper's configurations; Quick shrinks it.
func DefaultFig12(scale Scale) Fig12Config {
	if scale == Quick {
		return Fig12Config{SiteCounts: []int{1, 3}, Entries: 63, Requests: 8}
	}
	return Fig12Config{SiteCounts: []int{1, 3, 7}, Entries: 420, Requests: 40}
}

// RunFig12 measures the response time of a deployment-list request as in
// Fig. 12: "Response time per activity deployment request with cache on 1
// Grid site and without cache on 1, 3 and 7 Grid sites. Deployment entries
// are equally distributed on all involved sites." The client runs on a
// dedicated site holding no entries, so its cache (when enabled) is what
// answers repeat requests.
func RunFig12(cfg Fig12Config) ([]Fig12Point, error) {
	var out []Fig12Point
	run := func(sites int, cacheOn bool) (Fig12Point, error) {
		p := Fig12Point{Sites: sites, Cache: cacheOn, Entries: cfg.Entries, Requests: cfg.Requests}
		// Site 0 is the client's site; sites 1..k hold the entries. One
		// group holds everyone so resolution is direct peer fan-out. Real
		// clock: response time is a wall-clock quantity here.
		v, err := vo.Build(vo.Options{
			Sites:         sites + 1,
			GroupSize:     sites + 1,
			Clock:         simclock.Real,
			CacheDisabled: !cacheOn,
			CacheTTL:      time.Hour,
			// Model each holder site's per-entry container processing so
			// that spreading the entries over more (simulated) machines
			// shows real parallel speedup even on one core.
			ScanDelayPerEntry: 50 * time.Microsecond,
		})
		if err != nil {
			return p, err
		}
		defer v.Close()
		if err := v.ElectSuperPeers(); err != nil {
			return p, err
		}
		for i := 0; i < cfg.Entries; i++ {
			holder := v.Nodes[1+i%sites]
			d := &activity.Deployment{
				Name: fmt.Sprintf("dep-%04d", i),
				Type: "Fig12App",
				Kind: activity.KindExecutable,
				Site: holder.Info.Name,
				Path: fmt.Sprintf("/opt/fig12/bin/dep-%04d", i),
			}
			if _, err := holder.RDM.RegisterDeployment(d); err != nil {
				return p, err
			}
		}
		client := v.Nodes[0].RDM
		// Warm-up request (populates the cache when enabled; the paper's
		// cached series measures steady state).
		if ds, err := client.GetDeployments("Fig12App", rdm.MethodExpect, false); err != nil {
			return p, err
		} else if len(ds) != cfg.Entries {
			return p, fmt.Errorf("fig12: got %d deployments, want %d", len(ds), cfg.Entries)
		}
		var rec telemetry.Histogram
		for r := 0; r < cfg.Requests; r++ {
			t0 := time.Now()
			if _, err := client.GetDeployments("Fig12App", rdm.MethodExpect, false); err != nil {
				return p, err
			}
			rec.Observe(time.Since(t0))
		}
		p.MeanResponse = rec.Mean()
		return p, nil
	}

	// Cached series on 1 site, uncached on every site count.
	pt, err := run(1, true)
	if err != nil {
		return nil, err
	}
	out = append(out, pt)
	for _, k := range cfg.SiteCounts {
		pt, err := run(k, false)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// PrintFig12 renders the series.
func PrintFig12(w io.Writer, pts []Fig12Point) {
	fmt.Fprintln(w, "\nFig. 12 — response time per deployment request")
	var rows [][]string
	for _, p := range pts {
		cacheLabel := "off"
		if p.Cache {
			cacheLabel = "on"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Sites), cacheLabel,
			fmt.Sprintf("%d", p.Entries),
			fmt.Sprintf("%.2f", float64(p.MeanResponse.Microseconds())/1000.0),
		})
	}
	writeTable(w, []string{"Sites", "Cache", "Entries", "Mean ms/request"}, rows)
}
