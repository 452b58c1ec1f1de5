package rdm

import (
	"strconv"
	"testing"

	"glare/internal/xmlutil"
)

// TestSampleTelemetryFeedsHistory: one sampler pass walks the metric
// registry into the round-robin store; a re-sample at the same virtual
// instant is a no-op (every series rejects the stale timestamp).
func TestSampleTelemetryFeedsHistory(t *testing.T) {
	s, v := single(t)
	s.tel.Counter("glare_demo_total").Inc()

	n := s.SampleTelemetry()
	if n == 0 {
		t.Fatal("first sample pass recorded nothing")
	}
	for _, want := range []string{"glare_site_services", "glare_demo_total"} {
		if !s.History().Has(want) {
			t.Fatalf("series %q missing after sample; have %v", want, s.History().Names())
		}
	}
	// A same-instant re-sample may seed series that first appeared during
	// the previous pass (the sampler's own bookkeeping counter) but must
	// reject every existing series' stale timestamp; by the third pass
	// nothing is new and nothing is recorded.
	s.SampleTelemetry()
	if again := s.SampleTelemetry(); again != 0 {
		t.Fatalf("same-instant re-sample recorded %d series", again)
	}
	v.Advance(s.historyCfg.Step)
	if n2 := s.SampleTelemetry(); n2 == 0 {
		t.Fatal("sample after clock advance recorded nothing")
	}
}

// TestAlertPreemptsQuarantine: a rising rollback rate trips the default
// deploy-failure-rate rule, which quarantines every type with recorded
// failures before the consecutive-failure threshold would.
func TestAlertPreemptsQuarantine(t *testing.T) {
	s, v := single(t)
	// One recorded failure — far below DeployLimits.QuarantineAfter.
	s.mu.Lock()
	s.quarantined["Wien2k"] = &quarState{fails: 1}
	s.mu.Unlock()

	rollbacks := s.tel.Counter("glare_deploy_rollbacks_total")
	step := s.historyCfg.Step
	s.SampleTelemetry() // seed the counter series (first pdp is unknown)
	for i := 0; i < 3; i++ {
		rollbacks.Inc()
		v.Advance(step)
		s.SampleTelemetry()
	}

	firing := s.FiringAlerts()
	if len(firing) != 1 || firing[0].Rule.Name != "deploy-failure-rate" {
		t.Fatalf("firing = %+v", firing)
	}
	var q []QuarantineInfo
	for _, info := range s.DeployRunStatus().Quarantined {
		q = append(q, info)
	}
	if len(q) != 1 || q[0].Type != "Wien2k" || !q[0].Preempted {
		t.Fatalf("quarantined = %+v", q)
	}
	if q[0].Failures != s.limits.QuarantineAfter {
		t.Fatalf("failures = %d, want the threshold %d",
			q[0].Failures, s.limits.QuarantineAfter)
	}
	// The health digest that /healthz renders sees all of it.
	h := s.healthSnapshot()
	if h.Quarantined != 1 || h.FiringAlerts != 1 {
		t.Fatalf("health = %+v", h)
	}
}

// TestHistoryXportWire: the HistoryXport operation exports ring archives
// for one metric, and the finest form (used by the super-peer rollup)
// returns only closed finest-resolution AVERAGE points.
func TestHistoryXportWire(t *testing.T) {
	s, v := single(t)
	step := s.historyCfg.Step
	for i := 0; i < 4; i++ {
		s.SampleTelemetry()
		v.Advance(step)
	}

	req := xmlutil.NewNode("History")
	req.SetAttr("metric", "glare_site_services")
	resp, err := s.historyXportXML(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "HistoryXport" || resp.AttrOr("site", "") != "solo.uibk" {
		t.Fatalf("envelope = %s site=%q", resp.Name, resp.AttrOr("site", ""))
	}
	series := resp.All("Series")
	if len(series) != 1 || series[0].AttrOr("name", "") != "glare_site_services" {
		t.Fatalf("series = %+v", series)
	}
	if got := len(series[0].All("Archive")); got != len(s.historyCfg.Archives) {
		t.Fatalf("archives = %d, want %d", got, len(s.historyCfg.Archives))
	}

	fine := xmlutil.NewNode("History")
	fine.SetAttr("metric", "glare_site_services")
	fine.SetAttr("finest", "true")
	fine.SetAttr("sinceNs", "0")
	resp, err = s.historyXportXML(fine)
	if err != nil {
		t.Fatal(err)
	}
	archives := resp.All("Series")[0].All("Archive")
	if len(archives) != 1 || archives[0].AttrOr("cf", "") != "AVERAGE" {
		t.Fatalf("finest archives = %+v", archives)
	}
	points := archives[0].All("P")
	if len(points) == 0 {
		t.Fatal("finest export has no points")
	}
	for _, p := range points {
		if p.AttrOr("live", "") == "true" {
			t.Fatalf("finest export leaked a live point: %+v", p)
		}
	}
}

// TestHistoryXportPerMetricSince: a <Metric sinceNs> bounds only its own
// series, so the rollup's one call per member can ask for a metric with
// no grid series yet (sinceNs 0) beside one already folded to the end.
func TestHistoryXportPerMetricSince(t *testing.T) {
	s, v := single(t)
	step := s.historyCfg.Step
	for i := 0; i < 4; i++ {
		s.SampleTelemetry()
		v.Advance(step)
	}
	points := func(metric string, body *xmlutil.Node) int {
		t.Helper()
		resp, err := s.historyXportXML(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, sn := range resp.All("Series") {
			if sn.AttrOr("name", "") == metric {
				return len(sn.All("Archive")[0].All("P"))
			}
		}
		t.Fatalf("no %s series in %s", metric, resp)
		return 0
	}
	req := xmlutil.NewNode("History")
	req.SetAttr("finest", "true")
	req.Elem("Metric", "glare_site_services")
	all := points("glare_site_services", req)
	if all == 0 {
		t.Fatal("finest export has no points")
	}

	end := strconv.FormatInt(v.Now().UnixNano(), 10)
	req = xmlutil.NewNode("History")
	req.SetAttr("finest", "true")
	req.SetAttr("sinceNs", end)
	req.Elem("Metric", "glare_site_services").SetAttr("sinceNs", "0")
	req.Elem("Metric", "glare_clock_offset_ms")
	if got := points("glare_site_services", req); got != all {
		t.Fatalf("glare_site_services with its own sinceNs 0: %d points, want %d", got, all)
	}
	if got := points("glare_clock_offset_ms", req); got != 0 {
		t.Fatalf("glare_clock_offset_ms under the request's sinceNs: %d points, want 0", got)
	}
}
