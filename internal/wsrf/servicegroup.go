package wsrf

import (
	"sort"
	"sync"
	"time"

	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

// ServiceGroup aggregates resource property documents from many sources
// into one queryable document, mirroring the GT4 WSRF service-group
// framework that both the GLARE registries and the Index Service build on.
//
// Entries are periodically refreshed; each entry carries the EPR of its
// source resource and a cached copy of its content.
type Entry struct {
	EPR     epr.EPR
	Content *xmlutil.Node
	Added   time.Time
	Renewed time.Time
}

// ServiceGroup holds aggregated entries keyed by the source resource key.
type ServiceGroup struct {
	mu      sync.RWMutex
	name    string
	clock   simclock.Clock
	entries map[string]*Entry
}

// NewServiceGroup creates a named, empty service group.
func NewServiceGroup(name string, clock simclock.Clock) *ServiceGroup {
	if clock == nil {
		clock = simclock.Real
	}
	return &ServiceGroup{name: name, clock: clock, entries: make(map[string]*Entry)}
}

// Name returns the group name.
func (g *ServiceGroup) Name() string { return g.name }

// AddEntry inserts or refreshes an aggregated entry.
func (g *ServiceGroup) AddEntry(e epr.EPR, content *xmlutil.Node) {
	now := g.clock.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if old, ok := g.entries[e.Key]; ok {
		old.EPR = e
		old.Content = content
		old.Renewed = now
		return
	}
	g.entries[e.Key] = &Entry{EPR: e, Content: content, Added: now, Renewed: now}
}

// RemoveEntry drops an entry by resource key.
func (g *ServiceGroup) RemoveEntry(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.entries[key]; !ok {
		return false
	}
	delete(g.entries, key)
	return true
}

// Entry returns the aggregated entry for a key, or nil.
func (g *ServiceGroup) Entry(key string) *Entry {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.entries[key]
}

// Len returns the number of aggregated entries.
func (g *ServiceGroup) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}

// Document materializes the aggregated document:
//
//	<ServiceGroup name="...">
//	  <Entry key="...">
//	    <MemberEPR>…</MemberEPR>
//	    …content…
//	  </Entry>
//	</ServiceGroup>
//
// The entries are in sorted key order for determinism. XPath queries over
// the group scan this document — the linear cost at the heart of Fig. 11.
func (g *ServiceGroup) Document() *xmlutil.Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	root := xmlutil.NewNode("ServiceGroup").SetAttr("name", g.name)
	keys := make([]string, 0, len(g.entries))
	for k := range g.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := g.entries[k]
		appendEntry(root, k, e.EPR, e.Content)
	}
	return root
}

// appendEntry renders one aggregated entry — its member EPR and a private
// copy of its content — under a service-group document root.
func appendEntry(root *xmlutil.Node, key string, member epr.EPR, content *xmlutil.Node) {
	en := root.Elem("Entry")
	en.SetAttr("key", key)
	en.Add(member.ToXML("MemberEPR"))
	if content != nil {
		en.Add(content.Clone())
	}
}

// Query evaluates an XPath expression over the aggregated document.
func (g *ServiceGroup) Query(expr *xpath.Expr) xpath.Result {
	return expr.Select(g.Document())
}

// StaleEntries returns keys whose entry was last renewed before the cutoff.
func (g *ServiceGroup) StaleEntries(cutoff time.Time) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for k, e := range g.entries {
		if e.Renewed.Before(cutoff) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Refresh re-aggregates every resource of a Home into the group. The RDM
// Cache Refresher drives this periodically so that "aggregated resources
// are periodically refreshed".
func (g *ServiceGroup) Refresh(h *Home) {
	for _, r := range h.All() {
		g.AddEntry(h.EPR(r.Key()), r.Document())
	}
	// Drop entries whose source resource no longer exists.
	g.mu.Lock()
	defer g.mu.Unlock()
	for k := range g.entries {
		if h.Find(k) == nil {
			delete(g.entries, k)
		}
	}
}

// Aggregate renders every resource of the home as a service-group
// document named name: the same shape, entries and key order as the
// Document of a ServiceGroup just refreshed from h, built straight from
// the home with one private copy per resource document.
func (h *Home) Aggregate(name string) *xmlutil.Node {
	root := xmlutil.NewNode("ServiceGroup").SetAttr("name", name)
	for _, r := range h.All() {
		member := epr.New(h.service, h.keyName, r.key)
		r.mu.RLock()
		member.LastUpdateTime = r.lastUpdate
		appendEntry(root, r.key, member, r.doc)
		r.mu.RUnlock()
	}
	return root
}
