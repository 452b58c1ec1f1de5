package glare

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// scrapeAdmin fetches one of a site's plain-HTTP admin endpoints.
func scrapeAdmin(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// nonzeroSeries reports whether any exposition line whose series name
// starts with prefix carries a value other than zero.
func nonzeroSeries(text, prefix string) bool {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		switch strings.TrimSpace(line[i+1:]) {
		case "", "0", "0.000":
		default:
			return true
		}
	}
	return false
}

// TestTelemetryAcrossGrid is the subsystem's acceptance path: after a
// discovery that fans out across a three-site VO, every site serves
// /metrics with live RDM counters and latency histograms, /healthz
// answers, and /tracez on at least two sites shares one correlation ID —
// the discovery's trace crossed the wire.
func TestTelemetryAcrossGrid(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 3})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	if err := g.Client(0).RegisterTypes(ImagingTypes()...); err != nil {
		t.Fatal(err)
	}
	// Two discoveries from two different sites: each fans LocalDeployments
	// out to both its peers, so all three sites serve RDM traffic.
	if _, err := g.Client(1).Discover("ImageConversion"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Client(2).Discover("ImageConversion"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < g.Sites(); i++ {
		if g.Telemetry(i) == nil {
			t.Fatalf("site %d: nil telemetry", i)
		}
		if g.Telemetry(i) != g.Client(i).Telemetry() {
			t.Fatalf("site %d: Grid and Client disagree on the telemetry bundle", i)
		}
		base := g.SiteURL(i)
		metrics := scrapeAdmin(t, base+"/metrics")
		// The transport counts and times every RDM operation per op.
		if !nonzeroSeries(metrics, `glare_rpc_server_requests_total{service="GLARE",op=`) {
			t.Fatalf("site %d: no RDM requests counted:\n%s", i, metrics)
		}
		if !nonzeroSeries(metrics, `glare_rpc_server_latency_count{service="GLARE",op=`) {
			t.Fatalf("site %d: empty RDM latency histogram:\n%s", i, metrics)
		}
		health := scrapeAdmin(t, base+"/healthz")
		if !strings.Contains(health, `"status":"ok"`) || !strings.Contains(health, g.SiteName(i)) {
			t.Fatalf("site %d: bad healthz: %s", i, health)
		}
	}

	// The discovery initiated on site 1 starts a trace there; its fan-out
	// must have carried the correlation ID to other sites' tracez.
	traces1 := scrapeAdmin(t, g.SiteURL(1)+"/tracez")
	re := regexp.MustCompile(`rdm\.GetDeployments\s+trace=(\S+)`)
	m := re.FindStringSubmatch(traces1)
	if m == nil {
		t.Fatalf("site 1 tracez has no rdm.GetDeployments span:\n%s", traces1)
	}
	traceID := m[1]
	sitesWithTrace := 0
	for i := 0; i < g.Sites(); i++ {
		if strings.Contains(scrapeAdmin(t, g.SiteURL(i)+"/tracez"), "trace="+traceID) {
			sitesWithTrace++
		}
	}
	if sitesWithTrace < 2 {
		t.Fatalf("trace %s visible on %d site(s), want >= 2", traceID, sitesWithTrace)
	}

	// The resolution ladder attributed the discovery to a source tier.
	if !nonzeroSeries(scrapeAdmin(t, g.SiteURL(1)+"/metrics"), "glare_rdm_resolve_total{") {
		t.Fatal("site 1: resolve-source counters all zero")
	}
}
