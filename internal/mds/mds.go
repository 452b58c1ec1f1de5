// Package mds implements the WS-MDS (GT4 Index Service) baseline GLARE is
// compared against in Figs. 10 and 11.
//
// The Index Service aggregates resource property documents through the same
// WSRF service-group framework the GLARE registries use — the paper notes
// "the underlying aggregation framework ... is same for both GT4 Index
// service and GLARE registries. Therefore it is logical to make this
// comparison." The difference is the query path: the Index answers every
// query by evaluating XPath over the whole aggregated document (a linear
// scan), whereas the GLARE registries answer named lookups from a hash
// table. The Index also exhibits the overload collapse the paper reports:
// it "stops responding when we register more than 130 activity type
// resources in it and number of concurrent clients exceeds 10".
package mds

import (
	"fmt"
	"sync"
	"time"

	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

// Kind distinguishes the per-site Default Index from the VO-level
// Community Index ("In Globus Toolkit 4, terms Default Index service and
// Community Index service are used for local and root WS-MDS services").
type Kind int

const (
	DefaultIndex Kind = iota
	CommunityIndex
)

// String renders the kind name.
func (k Kind) String() string {
	if k == CommunityIndex {
		return "CommunityIndex"
	}
	return "DefaultIndex"
}

// CollapseConfig models the observed overload failure of the Index
// Service. When more than Resources entries are registered AND more than
// Clients queries are in flight, further queries hang until the load drops
// (paper §4, discussion of Fig. 11). Zero values disable collapse.
type CollapseConfig struct {
	Resources int
	Clients   int
}

// ObservedCollapse matches the paper's reported thresholds.
var ObservedCollapse = CollapseConfig{Resources: 130, Clients: 10}

// Index is one Index Service instance.
type Index struct {
	kind  Kind
	name  string
	group *wsrf.ServiceGroup
	clock simclock.Clock

	collapse CollapseConfig

	mu        sync.Mutex
	inflight  int
	wedged    bool
	upstreams []*Index // hierarchical aggregation: children register here

	// serviceDelay models the container's per-request processing time
	// (SOAP parsing, DOM handling in the real GT4 stack). It is a
	// blocking delay inside Query, so concurrent requests genuinely
	// overlap regardless of GOMAXPROCS — which is what lets the overload
	// collapse reproduce on small simulator hosts.
	serviceDelay time.Duration
}

// New creates an index service.
func New(name string, kind Kind, clock simclock.Clock) *Index {
	if clock == nil {
		clock = simclock.Real
	}
	return &Index{
		kind:  kind,
		name:  name,
		group: wsrf.NewServiceGroup(name, clock),
		clock: clock,
	}
}

// SetCollapse configures (or disables, with zero) overload collapse.
func (x *Index) SetCollapse(c CollapseConfig) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.collapse = c
}

// SetServiceDelay sets the modeled per-request container processing time.
func (x *Index) SetServiceDelay(d time.Duration) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.serviceDelay = d
}

// Kind returns the index kind.
func (x *Index) Kind() Kind { return x.kind }

// Name returns the service name.
func (x *Index) Name() string { return x.name }

// Register aggregates a resource property document under a key.
func (x *Index) Register(e epr.EPR, content *xmlutil.Node) {
	x.group.AddEntry(e, content)
	x.mu.Lock()
	ups := append([]*Index(nil), x.upstreams...)
	x.mu.Unlock()
	for _, up := range ups {
		up.Register(e, content)
	}
}

// Unregister removes an aggregated entry.
func (x *Index) Unregister(key string) bool {
	ok := x.group.RemoveEntry(key)
	x.mu.Lock()
	ups := append([]*Index(nil), x.upstreams...)
	x.mu.Unlock()
	for _, up := range ups {
		up.Unregister(key)
	}
	return ok
}

// AddUpstream links a parent index; registrations flow upward, forming the
// GT4 hierarchical aggregation used to discover Grid sites.
func (x *Index) AddUpstream(parent *Index) {
	if parent == nil || parent == x {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.upstreams = append(x.upstreams, parent)
}

// Len reports the number of aggregated entries.
func (x *Index) Len() int { return x.group.Len() }

// Query evaluates an XPath expression over the aggregated document. This
// is the Index Service's ONLY query mechanism: every call pays the full
// document materialization and scan.
func (x *Index) Query(expr *xpath.Expr) (xpath.Result, error) {
	x.mu.Lock()
	if x.wedged {
		x.mu.Unlock()
		return xpath.Result{}, fmt.Errorf("mds: %s: index service not responding", x.name)
	}
	x.inflight++
	if x.collapse.Resources > 0 && x.group.Len() > x.collapse.Resources &&
		x.inflight > x.collapse.Clients {
		x.wedged = true
		x.inflight--
		x.mu.Unlock()
		return xpath.Result{}, fmt.Errorf("mds: %s: index service not responding", x.name)
	}
	delay := x.serviceDelay
	x.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	res := x.group.Query(expr)

	x.mu.Lock()
	x.inflight--
	x.mu.Unlock()
	return res, nil
}

// QueryString compiles and evaluates an XPath source string.
func (x *Index) QueryString(src string) (xpath.Result, error) {
	expr, err := xpath.Compile(src)
	if err != nil {
		return xpath.Result{}, err
	}
	return x.Query(expr)
}

// Wedged reports whether the index has collapsed.
func (x *Index) Wedged() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.wedged
}

// Reset clears the wedged state (an administrator restart).
func (x *Index) Reset() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.wedged = false
	x.inflight = 0
}

// Members returns the keys of aggregated entries (used by the GLARE Index
// Monitor to learn community strength).
func (x *Index) Members() []string {
	doc := x.group.Document()
	var out []string
	for _, e := range doc.All("Entry") {
		if k, ok := e.Attr("key"); ok {
			out = append(out, k)
		}
	}
	return out
}

// ServiceName is the transport name Index Services mount under.
const ServiceName = "IndexService"

// Mount exposes the index over a transport server with operations:
//
//	Register(<Entry key="..."><MemberEPR>…</MemberEPR><content…/></Entry>)
//	Query(<XPath>expr</XPath>) -> <Results><…/>…</Results>
//	Members() -> <Members><Member>key</Member>…</Members>
func (x *Index) Mount(srv *transport.Server) {
	srv.RegisterService(ServiceName, map[string]transport.Handler{
		"Register": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			if body == nil {
				return nil, fmt.Errorf("Register: missing entry")
			}
			member := body.First("MemberEPR")
			if member == nil {
				return nil, fmt.Errorf("Register: missing MemberEPR")
			}
			e, err := epr.FromXML(member, "")
			if err != nil {
				return nil, err
			}
			var content *xmlutil.Node
			for _, c := range body.Children {
				if c.Name != "MemberEPR" {
					content = c.Clone()
					break
				}
			}
			x.Register(e, content)
			return xmlutil.NewNode("Registered"), nil
		},
		"Query": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			if body == nil {
				return nil, fmt.Errorf("Query: missing XPath")
			}
			res, err := x.QueryString(body.Text)
			if err != nil {
				return nil, err
			}
			out := xmlutil.NewNode("Results")
			for _, n := range res.Nodes {
				out.Add(n.Clone())
			}
			for _, s := range res.Strings {
				out.Elem("Value", s)
			}
			return out, nil
		},
		"Members": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			out := xmlutil.NewNode("Members")
			for _, m := range x.Members() {
				out.Elem("Member", m)
			}
			return out, nil
		},
	})
}
