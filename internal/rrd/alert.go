package rrd

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Predicate compares a windowed value against a rule threshold.
type Predicate uint8

const (
	Above Predicate = iota
	Below
)

// String renders the predicate name.
func (p Predicate) String() string {
	if p == Below {
		return "below"
	}
	return "above"
}

// Rule is one alert rule evaluated against the ring archives: consolidate
// Metric over the trailing Window with CF, compare against Threshold, and
// fire once the condition has held for For. Action is an opaque verb the
// embedding system interprets (rdm understands "quarantine").
type Rule struct {
	Name      string        `json:"name"`
	Metric    string        `json:"metric"`
	CF        CF            `json:"cf"`
	Window    time.Duration `json:"window"`
	Predicate Predicate     `json:"predicate"`
	Threshold float64       `json:"threshold"`
	For       time.Duration `json:"for"`
	Action    string        `json:"action,omitempty"`
}

// Alert is one firing rule instance.
type Alert struct {
	Rule    Rule
	Value   float64   // windowed value at the last evaluation
	Since   time.Time // when the condition first held
	FiredAt time.Time // when the alert transitioned to firing
}

// Alerts evaluates a fixed rule set against one Store. The pending map
// implements for-duration: a rule fires only after its condition has held
// continuously since pending[rule].
type Alerts struct {
	store   *Store
	mu      sync.Mutex
	rules   []Rule
	pending map[string]time.Time
	firing  map[string]*Alert
}

// NewAlerts creates an evaluator over the store.
func NewAlerts(store *Store, rules []Rule) *Alerts {
	return &Alerts{
		store:   store,
		rules:   append([]Rule(nil), rules...),
		pending: make(map[string]time.Time),
		firing:  make(map[string]*Alert),
	}
}

// Evaluate runs every rule at the given instant and returns the alerts
// that transitioned to firing on this pass. Already-firing alerts update
// their Value; recovered conditions clear pending and firing state.
func (a *Alerts) Evaluate(now time.Time) []Alert {
	a.mu.Lock()
	defer a.mu.Unlock()
	var fired []Alert
	for _, r := range a.rules {
		v, ok := a.windowValue(r, now)
		holds := ok && r.holds(v)
		if !holds {
			delete(a.pending, r.Name)
			delete(a.firing, r.Name)
			continue
		}
		since, pending := a.pending[r.Name]
		if !pending {
			since = now
			a.pending[r.Name] = now
		}
		if al := a.firing[r.Name]; al != nil {
			al.Value = v
			continue
		}
		if now.Sub(since) < r.For {
			continue
		}
		al := &Alert{Rule: r, Value: v, Since: since, FiredAt: now}
		a.firing[r.Name] = al
		fired = append(fired, *al)
	}
	return fired
}

func (r Rule) holds(v float64) bool {
	if r.Predicate == Below {
		return v < r.Threshold
	}
	return v > r.Threshold
}

// windowValue consolidates the rule's metric over [now-Window, now].
// AVERAGE divides by the full slot count of the window — unknown slots
// count as zero — so a sparse burst cannot look denser than it was.
// MIN/MAX/LAST ignore unknown slots entirely.
func (a *Alerts) windowValue(r Rule, now time.Time) (float64, bool) {
	res, err := a.store.Fetch(r.Metric, r.CF, now.Add(-r.Window), now)
	if err != nil || len(res.Points) == 0 {
		return 0, false
	}
	switch r.CF {
	case Average:
		sum := 0.0
		for _, p := range res.Points {
			if !math.IsNaN(p.V) {
				sum += p.V
			}
		}
		slots := int(r.Window / res.Step)
		if slots < 1 {
			slots = 1
		}
		return sum / float64(slots), true
	case Min:
		v, ok := math.Inf(1), false
		for _, p := range res.Points {
			if !math.IsNaN(p.V) && p.V < v {
				v, ok = p.V, true
			}
		}
		return v, ok
	case Max:
		v, ok := math.Inf(-1), false
		for _, p := range res.Points {
			if !math.IsNaN(p.V) && p.V > v {
				v, ok = p.V, true
			}
		}
		return v, ok
	default: // Last
		for i := len(res.Points) - 1; i >= 0; i-- {
			if !math.IsNaN(res.Points[i].V) {
				return res.Points[i].V, true
			}
		}
		return 0, false
	}
}

// Firing returns the currently-firing alerts, sorted by rule name.
func (a *Alerts) Firing() []Alert {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Alert, 0, len(a.firing))
	for _, al := range a.firing {
		out = append(out, *al)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule.Name < out[j].Rule.Name })
	return out
}

// FiringCount returns how many rules are currently firing.
func (a *Alerts) FiringCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.firing)
}
