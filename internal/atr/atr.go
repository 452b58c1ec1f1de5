// Package atr implements the Activity Type Registry: the GLARE component
// that "maintains a set of named activity types in the form of
// WS-Resources organized in a hierarchy" (paper §3.1).
//
// Two query paths exist, and their difference is the paper's headline
// performance result (Figs. 10 and 11):
//
//   - Named lookups go through a hash table ("In order to answer queries
//     for named resources faster, the registry services use hash tables to
//     access named resources. This eliminates XPath-based search
//     requirements ... and significantly improves the performance.")
//   - Non-named discovery uses the same XPath mechanism as the Index
//     Service, over the WSRF service-group aggregation — a document
//     rendered from the registry's resource home on each query, not a
//     second store.
package atr

import (
	"fmt"
	"time"

	"glare/internal/activity"
	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

// KeyName is the EPR reference-property for type resources.
const KeyName = "ActivityTypeKey"

// ServiceName is the transport mount point.
const ServiceName = "ActivityTypeRegistry"

// groupName names the aggregated document non-named queries run over.
const groupName = "activity-types"

// Registry is one site's Activity Type Registry.
type Registry struct {
	home     *wsrf.Home
	broker   *wsrf.Broker
	skeleton *wsrf.View[*activity.Hierarchy] // names, abstract flags and bases only

	// Hot-path counters; nil (no-op) until SetTelemetry is called.
	lookups, registers, concrete *telemetry.Counter
}

// New creates an empty registry. serviceURL is the address other sites use
// to reach it (may be set later via SetServiceURL when the server starts).
func New(serviceURL string, clock simclock.Clock, broker *wsrf.Broker) *Registry {
	if clock == nil {
		clock = simclock.Real
	}
	if broker == nil {
		broker = wsrf.NewBroker(clock)
	}
	home := wsrf.NewHome(serviceURL, KeyName, clock)
	return &Registry{
		home:     home,
		broker:   broker,
		skeleton: wsrf.NewView(home, skeletonOf),
	}
}

// skeletonOf indexes the registered documents for resolution without
// decoding them.
func skeletonOf(all []*wsrf.Resource) *activity.Hierarchy {
	types := make([]*activity.Type, len(all))
	for i, res := range all {
		res.Read(func(doc *xmlutil.Node) { types[i] = activity.SkeletonFromXML(doc) })
	}
	return activity.SkeletonHierarchy(types)
}

// Home exposes the resource home: the registry's only copy of its type
// documents, and the point that stamps, journals, restores and adopts
// them.
func (r *Registry) Home() *wsrf.Home { return r.home }

// SetTelemetry binds the registry's hot-path counters to a site's
// telemetry registry. Call during site assembly, before serving traffic.
func (r *Registry) SetTelemetry(tel *telemetry.Telemetry) {
	r.lookups = tel.Counter("glare_atr_lookups_total")
	r.registers = tel.Counter("glare_atr_registers_total")
	r.concrete = tel.Counter("glare_atr_concrete_queries_total")
}

// Register adds an activity type. Duplicate names are rejected, and so is
// a type whose declared bases lead back to it through this registry.
func (r *Registry) Register(t *activity.Type) (epr.EPR, error) {
	r.registers.Inc()
	if err := t.Validate(); err != nil {
		return epr.EPR{}, err
	}
	if err := r.checkBases(t); err != nil {
		return epr.EPR{}, err
	}
	if _, err := r.home.Create(t.Name, t.ToXML()); err != nil {
		return epr.EPR{}, err
	}
	if r.broker.HasSinks(wsrf.TopicResourceCreated) {
		r.broker.Publish(wsrf.TopicResourceCreated, t.Name, t.ToXML())
	}
	return r.home.EPR(t.Name), nil
}

// checkBases walks t's bases through the registered documents and fails
// if the walk reaches t: registering it would close a cycle. It reads one
// document per ancestor, so a type without bases costs nothing. Two
// concurrent registrations can still close a cycle between them; the
// resolution walk tolerates that.
func (r *Registry) checkBases(t *activity.Type) error {
	if len(t.Base) == 0 {
		return nil
	}
	seen := map[string]bool{}
	stack := append([]string(nil), t.Base...)
	for len(stack) > 0 {
		name := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if name == t.Name {
			return fmt.Errorf("atr: type %q would close a base-type cycle", t.Name)
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		if res := r.home.Find(name); res != nil {
			res.Read(func(doc *xmlutil.Node) {
				stack = append(stack, activity.SkeletonFromXML(doc).Base...)
			})
		}
	}
	return nil
}

// Lookup resolves a named type through the hash table — the O(1) path.
func (r *Registry) Lookup(name string) (*activity.Type, bool) {
	r.lookups.Inc()
	return r.decode(name)
}

// decode parses the live document of a named type.
func (r *Registry) decode(name string) (*activity.Type, bool) {
	res := r.home.Find(name)
	if res == nil {
		return nil, false
	}
	var t *activity.Type
	var err error
	res.Read(func(doc *xmlutil.Node) { t, err = activity.TypeFromXML(doc) })
	if err != nil {
		return nil, false
	}
	return t, true
}

// LookupDocument returns the raw property document of a named type.
func (r *Registry) LookupDocument(name string) (*xmlutil.Node, bool) {
	res := r.home.Find(name)
	if res == nil {
		return nil, false
	}
	return res.Document(), true
}

// LUT returns the LastUpdateTime of a named type resource.
func (r *Registry) LUT(name string) (time.Time, bool) {
	res := r.home.Find(name)
	if res == nil {
		return time.Time{}, false
	}
	return res.LastUpdate(), true
}

// Remove destroys a type resource; its deployments are expired by the RDM
// service through the destroy listener.
func (r *Registry) Remove(name string) bool {
	if !r.home.Destroy(name) {
		return false
	}
	r.broker.Publish(wsrf.TopicResourceDestroyed, name, nil)
	return true
}

// OnRemove registers a listener fired when a type resource is destroyed.
func (r *Registry) OnRemove(fn func(typeName string)) {
	r.home.OnDestroy(func(res *wsrf.Resource) { fn(res.Key()) })
}

// Names lists registered type names in sorted order.
func (r *Registry) Names() []string { return r.home.Keys() }

// Len reports the number of registered types.
func (r *Registry) Len() int { return r.home.Len() }

// Types returns all registered types.
func (r *Registry) Types() []*activity.Type {
	var out []*activity.Type
	for _, res := range r.home.All() {
		var t *activity.Type
		var err error
		res.Read(func(doc *xmlutil.Node) { t, err = activity.TypeFromXML(doc) })
		if err == nil {
			out = append(out, t)
		}
	}
	return out
}

// Hierarchy builds a hierarchy view over the registered types.
func (r *Registry) Hierarchy() (*activity.Hierarchy, error) {
	return activity.NewHierarchy(r.Types())
}

// ConcreteOf resolves an abstract or concrete name to the concrete types
// satisfying it in the local hierarchy, sorted by name. It walks the
// subtype closure of name in a skeleton of the registry (names, abstract
// flags and bases, rebuilt on the first call after a registry change) and
// decodes only the matches, fresh from their documents, so the caller owns
// them. A base-type cycle cannot fail it. The error is always nil; it is
// kept for callers that treat resolution as fallible.
func (r *Registry) ConcreteOf(name string) ([]*activity.Type, error) {
	r.concrete.Inc()
	matches := r.skeleton.Get().ConcreteOf(name)
	if len(matches) == 0 {
		return nil, nil
	}
	out := make([]*activity.Type, 0, len(matches))
	for _, m := range matches {
		if t, ok := r.decode(m.Name); ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// Query evaluates an XPath expression over the service-group aggregation
// of the registered types, read in place from the home so results reflect
// current state. Every result node is a private copy.
func (r *Registry) Query(expr *xpath.Expr) xpath.Result {
	return r.home.Select(groupName, expr)
}

// QueryString compiles and evaluates an XPath source string.
func (r *Registry) QueryString(src string) (xpath.Result, error) {
	expr, err := xpath.Compile(src)
	if err != nil {
		return xpath.Result{}, err
	}
	return r.Query(expr), nil
}

// AddDeploymentRef records a deployment EPR inside its type resource:
// "The Endpoint Reference (EPR) of each activity deployment resource is
// registered in its type resource presented in the type registry."
func (r *Registry) AddDeploymentRef(typeName string, dep epr.EPR) error {
	updated := r.home.Update(typeName, func(doc *xmlutil.Node) {
		refs := doc.First("DeploymentRefs")
		if refs == nil {
			refs = doc.Elem("DeploymentRefs")
		}
		// Replace any previous EPR for the same deployment key.
		for _, old := range refs.All("DeploymentEPR") {
			if rp := old.First("ReferenceProperties"); rp != nil &&
				rp.ChildText("ActivityDeploymentKey") == dep.Key {
				refs.Remove(old)
			}
		}
		refs.Add(dep.ToXML("DeploymentEPR"))
	})
	if !updated {
		return fmt.Errorf("atr: no such type %q", typeName)
	}
	r.broker.Publish(wsrf.TopicResourceUpdated, typeName, nil)
	return nil
}

// RemoveDeploymentRef drops a deployment EPR from its type resource.
func (r *Registry) RemoveDeploymentRef(typeName, deploymentKey string) {
	r.home.Update(typeName, func(doc *xmlutil.Node) {
		refs := doc.First("DeploymentRefs")
		if refs == nil {
			return
		}
		for _, old := range refs.All("DeploymentEPR") {
			if rp := old.First("ReferenceProperties"); rp != nil &&
				rp.ChildText("ActivityDeploymentKey") == deploymentKey {
				refs.Remove(old)
			}
		}
	})
}

// DeploymentRefs lists the deployment EPRs recorded in a type resource.
func (r *Registry) DeploymentRefs(typeName string) []epr.EPR {
	res := r.home.Find(typeName)
	if res == nil {
		return nil
	}
	var out []epr.EPR
	res.Read(func(doc *xmlutil.Node) {
		if refs := doc.First("DeploymentRefs"); refs != nil {
			for _, n := range refs.All("DeploymentEPR") {
				if e, err := epr.FromXML(n, "ActivityDeploymentKey"); err == nil {
					out = append(out, e)
				}
			}
		}
	})
	return out
}

// MarkDeployed flags the type as deployed on a site ("After successful
// installation, the activity type is marked as deployed").
func (r *Registry) MarkDeployed(typeName, siteName string) error {
	updated := r.home.Update(typeName, func(doc *xmlutil.Node) {
		for _, d := range doc.All("DeployedOn") {
			if d.Text == siteName {
				return
			}
		}
		doc.Elem("DeployedOn", siteName)
	})
	if !updated {
		return fmt.Errorf("atr: no such type %q", typeName)
	}
	return nil
}

// DeployedOn lists the sites a type is marked deployed on.
func (r *Registry) DeployedOn(typeName string) []string {
	res := r.home.Find(typeName)
	if res == nil {
		return nil
	}
	var out []string
	res.Read(func(doc *xmlutil.Node) {
		for _, d := range doc.All("DeployedOn") {
			out = append(out, d.Text)
		}
	})
	return out
}

// SetTermination schedules expiry of a type resource (lifecycle control by
// the activity provider, paper §3.3).
func (r *Registry) SetTermination(typeName string, at time.Time) error {
	if !r.home.SetTermination(typeName, at) {
		return fmt.Errorf("atr: no such type %q", typeName)
	}
	return nil
}

// SweepExpired destroys expired type resources and returns their names.
func (r *Registry) SweepExpired() []string {
	gone := r.home.SweepExpired()
	for _, name := range gone {
		r.broker.Publish(wsrf.TopicResourceDestroyed, name, nil)
	}
	return gone
}

// EPR mints the endpoint reference of a type resource.
func (r *Registry) EPR(name string) epr.EPR { return r.home.EPR(name) }

// Mount exposes the registry over a transport server.
func (r *Registry) Mount(srv *transport.Server) {
	srv.RegisterService(ServiceName, map[string]transport.Handler{
		"RegisterType": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			t, err := activity.TypeFromXML(body)
			if err != nil {
				return nil, err
			}
			e, err := r.Register(t)
			if err != nil {
				return nil, err
			}
			return e.ToXML("TypeEPR"), nil
		},
		"GetType": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			name := textArg(body)
			if name == "" {
				return nil, fmt.Errorf("GetType: missing name")
			}
			doc, ok := r.LookupDocument(name)
			if !ok {
				return nil, fmt.Errorf("GetType: no such type %q", name)
			}
			return doc, nil
		},
		"GetLUT": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			name := textArg(body)
			lut, ok := r.LUT(name)
			if !ok {
				return nil, fmt.Errorf("GetLUT: no such type %q", name)
			}
			return xmlutil.NewNode("LUT", lut.Format(epr.TimeLayout)), nil
		},
		"Query": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			res, err := r.QueryString(textArg(body))
			if err != nil {
				return nil, err
			}
			out := xmlutil.NewNode("Results").Add(res.Nodes...)
			for _, s := range res.Strings {
				out.Elem("Value", s)
			}
			return out, nil
		},
		"ListTypes": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			out := xmlutil.NewNode("Types")
			for _, n := range r.Names() {
				out.Elem("Type", n)
			}
			return out, nil
		},
		"RemoveType": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			if !r.Remove(textArg(body)) {
				return nil, fmt.Errorf("RemoveType: no such type")
			}
			return xmlutil.NewNode("Removed"), nil
		},
	})
}

func textArg(body *xmlutil.Node) string {
	if body == nil {
		return ""
	}
	return body.Text
}
