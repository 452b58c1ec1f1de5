package rdm

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"glare/internal/rrd"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

// This file closes the paper's monitoring→deployment loop: a per-site
// sampler folds the telemetry registry into round-robin archives
// (internal/rrd), the durable store persists them across restarts, a
// super-peer rollup consolidates members' series into grid-wide ones,
// and an alert engine on the rings pre-emptively quarantines failing
// activity types before the consecutive-failure threshold would.

// ActionQuarantine is the alert action the RDM interprets: pre-emptively
// quarantine every activity type with recent build failures.
const ActionQuarantine = "quarantine"

// GridSeriesPrefix prefixes the consolidated grid-wide series a
// super-peer maintains, keeping them apart from the site's own.
const GridSeriesPrefix = "grid:"

// HistoryConfig tunes a site's telemetry history.
type HistoryConfig struct {
	// Step is the base sampling period (default 5s).
	Step time.Duration
	// Archives is the retention ladder (default rrd.DefaultArchives); each
	// ring holds at most rrd.MaxRows slots.
	Archives []rrd.ArchiveSpec
}

func (c HistoryConfig) withDefaults() HistoryConfig {
	if c.Step <= 0 {
		c.Step = rrd.DefaultStep
	}
	if len(c.Archives) == 0 {
		c.Archives = rrd.DefaultArchives()
	}
	return c
}

// DefaultAlertRules returns the built-in rule set: a rising
// deploy-failure rate (more than one rollback inside a ten-step window)
// pre-emptively quarantines the failing types, and a sustained
// admission-shed rate (more than one refused request per second over the
// window) surfaces site overload in /healthz and `glarectl history`
// before callers notice brownouts. The failure threshold is one per
// window because rates are per-second: a lone rollback averages to
// exactly 1/window over the window and stays below it.
func DefaultAlertRules(step time.Duration) []rrd.Rule {
	window := 10 * step
	return []rrd.Rule{{
		Name:      "deploy-failure-rate",
		Metric:    "glare_deploy_rollbacks_total",
		CF:        rrd.Average,
		Window:    window,
		Predicate: rrd.Above,
		Threshold: 1.0 / window.Seconds(),
		Action:    ActionQuarantine,
	}, {
		Name:      "overload-shed-rate",
		Metric:    "glare_server_sheds_total",
		CF:        rrd.Average,
		Window:    window,
		Predicate: rrd.Above,
		Threshold: 1.0,
	}}
}

// DefaultRollupMetrics lists the site series consolidated grid-wide.
func DefaultRollupMetrics() []string {
	return []string{
		"glare_deploy_rollbacks_total",
		"glare_deploy_quarantined_total",
		"glare_rdm_resolve_degraded_total",
		"glare_server_sheds_total",
	}
}

// History returns the site's telemetry history store.
func (s *Service) History() *rrd.Store { return s.history }

// FiringAlerts returns the currently-firing alerts, sorted by rule name.
func (s *Service) FiringAlerts() []rrd.Alert {
	return s.alerts.Firing()
}

// healthSnapshot feeds /healthz: quarantined types, open breakers and
// firing alerts.
func (s *Service) healthSnapshot() telemetry.Health {
	var h telemetry.Health
	now := s.clock.Now()
	s.mu.Lock()
	for _, q := range s.quarantined {
		if q.fails >= s.limits.QuarantineAfter && now.Before(q.until) {
			h.Quarantined++
		}
	}
	s.mu.Unlock()
	h.OpenBreakers = s.client.OpenBreakers()
	h.FiringAlerts = s.alerts.FiringCount()
	return h
}

// SampleTelemetry is one history-sampler pass: walk the telemetry
// registry's structured snapshot, feed every instrument into the ring
// archives (creating series on first sight), journal the tick, then
// evaluate the alert rules at the sample instant. Counters become
// counter-kind series (stored as rates); gauges are stored as-is;
// histograms contribute a _count counter and a _p99_ms gauge. Returns
// how many samples the rings accepted.
func (s *Service) SampleTelemetry() int {
	// Site-level and clock-skew gauges piggyback on the sampler so history
	// covers the container and its clock, not just the RDM's own counters.
	s.tel.Gauge("glare_site_services").Set(int64(s.site.ServiceCount()))
	s.CheckClockSkew()
	now := s.clock.Now()
	batch := rrd.Batch{TS: now}
	for _, sm := range s.tel.Registry().Snapshot() {
		switch sm.Kind {
		case telemetry.KindCounter:
			s.historyObserve(&batch, sm.SeriesName(), rrd.Counter, sm.Value)
		case telemetry.KindGauge:
			s.historyObserve(&batch, sm.SeriesName(), rrd.Gauge, sm.Value)
		case telemetry.KindHistogram:
			s.historyObserve(&batch, telemetry.SeriesName(sm.Name+"_count", sm.Labels...),
				rrd.Counter, float64(sm.Histogram.Count))
			s.historyObserve(&batch, telemetry.SeriesName(sm.Name+"_p99_ms", sm.Labels...),
				rrd.Gauge, float64(sm.Histogram.Q99)/float64(time.Millisecond))
		}
	}
	if len(batch.Samples) > 0 {
		_ = s.store.AppendBatch(batch)
		s.historySamples.Add(uint64(len(batch.Samples)))
	}
	s.evaluateAlerts(now)
	return len(batch.Samples)
}

// historyObserve feeds one raw value into its series, creating (and
// journaling) the series on first sight. Accepted samples join the batch
// so the WAL can replay the tick after a crash.
func (s *Service) historyObserve(b *rrd.Batch, name string, kind rrd.Kind, v float64) {
	if !s.history.Has(name) {
		def := rrd.SeriesDef{Name: name, Kind: kind, Step: s.historyCfg.Step, Archives: s.historyCfg.Archives}
		if err := s.history.Create(def); err != nil {
			return
		}
		_ = s.store.CreateSeries(def)
	}
	if err := s.history.Update(name, b.TS, v); err != nil {
		return // ErrPast: clock did not advance since the last tick
	}
	b.Samples = append(b.Samples, rrd.Sample{Name: name, Value: v})
}

// evaluateAlerts runs the rule set and reacts to newly-firing alerts.
func (s *Service) evaluateAlerts(now time.Time) {
	fired := s.alerts.Evaluate(now)
	s.tel.Gauge("glare_alerts_firing").Set(int64(s.alerts.FiringCount()))
	for _, a := range fired {
		s.tel.Counter("glare_alerts_fired_total", telemetry.L("rule", a.Rule.Name)).Inc()
		s.site.NotifyAdmin("alert firing: "+a.Rule.Name,
			fmt.Sprintf("%s %s %s %g (value %g)", a.Rule.Metric, a.Rule.CF, a.Rule.Predicate, a.Rule.Threshold, a.Value))
		if a.Rule.Action == ActionQuarantine {
			s.PreemptQuarantine(a.Rule.Name)
		}
	}
}

// historyXportXML serves the HistoryXport wire op. The request selects
// series by exact name (metric attribute or <Metric> children; none
// means every series). finest="true" restricts the response to the
// finest AVERAGE archive and drops live/unfinalized points — the form
// the super-peer rollup consumes; sinceNs bounds the payload to points
// after that instant, and a <Metric sinceNs> overrides it for that
// series, so one request serves series folded up to different instants.
func (s *Service) historyXportXML(body *xmlutil.Node) (*xmlutil.Node, error) {
	var metrics []string
	finest := false
	var sinceNs int64
	since := map[string]int64{}
	if body != nil {
		if m := body.AttrOr("metric", ""); m != "" {
			metrics = append(metrics, m)
		}
		sinceNs, _ = strconv.ParseInt(body.AttrOr("sinceNs", "0"), 10, 64)
		for _, n := range body.All("Metric") {
			if n.Text == "" {
				continue
			}
			metrics = append(metrics, n.Text)
			if v, err := strconv.ParseInt(n.AttrOr("sinceNs", ""), 10, 64); err == nil {
				since[n.Text] = v
			}
		}
		finest = body.AttrOr("finest", "") == "true"
	}
	if len(metrics) == 0 {
		metrics = s.history.Names()
	}
	resp := xmlutil.NewNode("HistoryXport")
	resp.SetAttr("site", s.selfName())
	for _, m := range metrics {
		x, err := s.history.Xport(m)
		if err != nil {
			continue
		}
		sn := resp.Elem("Series", "")
		sn.SetAttr("name", x.Def.Name)
		sn.SetAttr("kind", x.Def.Kind.String())
		cut, ok := since[m]
		if !ok {
			cut = sinceNs
		}
		for _, arch := range x.Archives {
			if finest && !(arch.Spec.CF == rrd.Average && arch.Spec.Steps == 1) {
				continue
			}
			an := sn.Elem("Archive", "")
			an.SetAttr("cf", arch.Spec.CF.String())
			an.SetAttr("stepNs", strconv.FormatInt(int64(arch.Step), 10))
			an.SetAttr("rows", strconv.Itoa(arch.Spec.Rows))
			for _, p := range arch.Points {
				if p.TS.UnixNano() <= cut {
					continue
				}
				if finest && p.Live {
					continue
				}
				pn := an.Elem("P", "")
				pn.SetAttr("tsNs", strconv.FormatInt(p.TS.UnixNano(), 10))
				if !math.IsNaN(p.V) {
					pn.SetAttr("v", strconv.FormatFloat(p.V, 'g', -1, 64))
				}
				if p.Live {
					pn.SetAttr("live", "true")
				}
			}
		}
	}
	return resp, nil
}

// RollupHistory is one super-peer rollup pass: xport every group
// member's finalized fine-grained points for the configured metrics, one
// call per member, sum the per-second rates per timestamp across the
// community (self included), and feed the sums into local grid:<metric>
// series. Each metric is pulled only from after its own grid series'
// last sample, and the rings reject stale timestamps anyway, so re-pulls
// never double-count. Returns how many consolidated points were folded
// in.
func (s *Service) RollupHistory() int {
	view := s.view()
	if view.SuperPeer.IsZero() || view.SuperPeer.Name != s.selfName() {
		return 0
	}
	sp := s.tel.StartSpan("rdm.RollupHistory", nil)
	metrics := DefaultRollupMetrics()
	// metric -> closed fine points after since[metric], summed across
	// the community.
	since := make(map[string]int64, len(metrics))
	sums := make(map[string]map[int64]float64, len(metrics))
	req := xmlutil.NewNode("History")
	req.SetAttr("finest", "true")
	for _, metric := range metrics {
		if last, ok := s.history.LastTS(GridSeriesPrefix + metric); ok {
			since[metric] = last.UnixNano()
		}
		sums[metric] = map[int64]float64{}
		s.rollupLocal(metric, since[metric], sums[metric])
		req.Elem("Metric", metric).SetAttr("sinceNs", strconv.FormatInt(since[metric], 10))
	}
	for _, t := range view.Peers(s.selfName()) {
		s.rollupFrom(sp, t, req, since, sums)
	}
	folded := 0
	for _, metric := range metrics {
		folded += s.foldGridSeries(GridSeriesPrefix+metric, sums[metric])
	}
	sp.SetNote(fmt.Sprintf("points=%d", folded))
	sp.End(nil)
	return folded
}

// rollupLocal adds this site's own closed fine points to the sums. It
// reads the finest AVERAGE archive directly (the same slice of the store
// the HistoryXport finest form exports) rather than Fetch, whose
// archive-selection would pick a coarser ring for a wide-open range.
func (s *Service) rollupLocal(metric string, sinceNs int64, sums map[int64]float64) {
	x, err := s.history.Xport(metric)
	if err != nil {
		return
	}
	for _, arch := range x.Archives {
		if !(arch.Spec.CF == rrd.Average && arch.Spec.Steps == 1) {
			continue
		}
		for _, p := range arch.Points {
			if p.Live || math.IsNaN(p.V) || p.TS.UnixNano() <= sinceNs {
				continue
			}
			sums[p.TS.UnixNano()] += p.V
		}
	}
}

// rollupFrom pulls one member's closed fine points of every rollup
// metric over the wire and adds each series' points to its sums.
func (s *Service) rollupFrom(sp *telemetry.Span, target superpeer.SiteInfo, req *xmlutil.Node, since map[string]int64, sums map[string]map[int64]float64) {
	resp, err := s.call(context.Background(), sp, target.ServiceURL(ServiceName), "HistoryXport", req)
	if err != nil || resp == nil {
		return
	}
	for _, sn := range resp.All("Series") {
		name := sn.AttrOr("name", "")
		into, ok := sums[name]
		if !ok {
			continue
		}
		for _, an := range sn.All("Archive") {
			for _, pn := range an.All("P") {
				vs := pn.AttrOr("v", "")
				if vs == "" {
					continue
				}
				tsNs, terr := strconv.ParseInt(pn.AttrOr("tsNs", ""), 10, 64)
				v, verr := strconv.ParseFloat(vs, 64)
				if terr != nil || verr != nil || tsNs <= since[name] {
					continue
				}
				into[tsNs] += v
			}
		}
	}
}

// foldGridSeries feeds the summed points, in timestamp order, into the
// grid-wide series (creating and journaling it on first use). Grid
// series are gauge-kind: the member values are already rates.
func (s *Service) foldGridSeries(gridName string, sums map[int64]float64) int {
	if len(sums) == 0 {
		return 0
	}
	if !s.history.Has(gridName) {
		def := rrd.SeriesDef{Name: gridName, Kind: rrd.Gauge, Step: s.historyCfg.Step, Archives: s.historyCfg.Archives}
		if err := s.history.Create(def); err != nil {
			return 0
		}
		_ = s.store.CreateSeries(def)
	}
	order := make([]int64, 0, len(sums))
	for ts := range sums {
		order = append(order, ts)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	folded := 0
	for _, ts := range order {
		if err := s.history.Update(gridName, time.Unix(0, ts), sums[ts]); err != nil {
			continue
		}
		_ = s.store.AppendBatch(rrd.Batch{
			TS:      time.Unix(0, ts),
			Samples: []rrd.Sample{{Name: gridName, Value: sums[ts]}},
		})
		folded++
	}
	if folded > 0 {
		s.rollupPoints.Add(uint64(folded))
	}
	return folded
}
