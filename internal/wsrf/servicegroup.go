package wsrf

import (
	"slices"
	"sort"
	"strings"
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
}

// ServiceGroup holds aggregated entries keyed by the source resource key.
type ServiceGroup struct {
	mu      sync.RWMutex
	name    string
	entries map[string]*Entry
}

// NewServiceGroup creates a named, empty service group. The group keeps
// no timestamps, so the clock is not used.
func NewServiceGroup(name string, _ simclock.Clock) *ServiceGroup {
	return &ServiceGroup{name: name, entries: make(map[string]*Entry)}
}

// Name returns the group name.
func (g *ServiceGroup) Name() string { return g.name }

// AddEntry inserts or refreshes an aggregated entry.
func (g *ServiceGroup) AddEntry(e epr.EPR, content *xmlutil.Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if old, ok := g.entries[e.Key]; ok {
		old.EPR = e
		old.Content = content
		return
	}
	g.entries[e.Key] = &Entry{EPR: e, Content: content}
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
		root.Add(entry(k, e.EPR, e.Content))
	}
	return root
}

// memberElem names the element an entry's member EPR is rendered as.
const memberElem = "MemberEPR"

// entry renders one aggregated entry: its member EPR and a private copy of
// its content.
func entry(key string, member epr.EPR, content *xmlutil.Node) *xmlutil.Node {
	en := xmlutil.NewNode("Entry").SetAttr("key", key).Add(member.ToXML(memberElem))
	if content != nil {
		en.Add(content.Clone())
	}
	return en
}

// Query evaluates an XPath expression over the aggregated document.
func (g *ServiceGroup) Query(expr *xpath.Expr) xpath.Result {
	return expr.Select(g.Document())
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

// memberNames lists the element names a member EPR of a home with the
// given service and key name renders, LastUpdateTime included.
func memberNames(service, keyName string) []string {
	member := epr.New(service, keyName, "").Touch(time.Unix(0, 1))
	var names []string
	member.ToXML(memberElem).Walk(func(n *xmlutil.Node) bool {
		names = append(names, n.Name)
		return true
	})
	return names
}

// Select evaluates expr over the home's resources viewed as a service-group
// document named name: the shape, entries and key order of the Document
// of a ServiceGroup just refreshed from h, and the same answer. The view
// is built per call around the live documents, which are read in place
// under their read locks (taken in key order, see Home); only the matched
// nodes are copied out. Member EPRs are rendered only when expr can test
// one of their elements, and a matched entry or root is copied out in full,
// member EPRs included.
func (h *Home) Select(name string, expr *xpath.Expr) xpath.Result {
	all := h.All()
	for _, r := range all {
		r.mu.RLock()
	}
	defer func() {
		for _, r := range all {
			r.mu.RUnlock()
		}
	}()
	live := make([]*Resource, 0, len(all))
	for _, r := range all {
		if !r.destroyed {
			live = append(live, r)
		}
	}
	withMember := expr.Tests(h.member...)
	per := 1
	if withMember {
		per = 2
	}
	// Three slabs hold the view: entry wrappers, their key attributes, and
	// one child list for the root followed by each entry's children.
	entries := make([]xmlutil.Node, len(live))
	keys := make([]xmlutil.Attr, len(live))
	kids := make([]*xmlutil.Node, len(live), len(live)*(1+per))
	for i, r := range live {
		keys[i] = xmlutil.Attr{Name: "key", Value: r.key}
		first := len(kids)
		if withMember {
			kids = append(kids, h.memberEPR(r).ToXML(memberElem))
		}
		if r.doc != nil {
			kids = append(kids, r.doc)
		}
		entries[i] = xmlutil.Node{Name: "Entry", Attrs: keys[i : i+1 : i+1], Children: kids[first:len(kids):len(kids)]}
		kids[i] = &entries[i]
	}
	root := &xmlutil.Node{Name: "ServiceGroup", Attrs: []xmlutil.Attr{{Name: "name", Value: name}}, Children: kids[:len(live):len(live)]}

	// entryOf returns the resource whose view entry n is, or nil: a content
	// element may look like an entry, but only the slab's is one.
	entryOf := func(n *xmlutil.Node) *Resource {
		if len(n.Attrs) != 1 {
			return nil
		}
		j, ok := slices.BinarySearchFunc(live, n.Attrs[0].Value, func(r *Resource, key string) int { return strings.Compare(r.key, key) })
		if !ok || n != &entries[j] {
			return nil
		}
		return live[j]
	}
	res := expr.Select(root)
	for i, n := range res.Nodes {
		switch r := entryOf(n); {
		case n == root:
			full := xmlutil.NewNode("ServiceGroup").SetAttr("name", name)
			for _, r := range live {
				full.Add(entry(r.key, h.memberEPR(r), r.doc))
			}
			res.Nodes[i] = full
		case r != nil:
			res.Nodes[i] = entry(r.key, h.memberEPR(r), r.doc)
		default:
			res.Nodes[i] = n.Clone()
		}
	}
	return res
}

// memberEPR mints the member EPR of r, whose lock the caller holds.
func (h *Home) memberEPR(r *Resource) epr.EPR {
	return epr.New(h.service, h.keyName, r.key).Touch(r.lastUpdate)
}
