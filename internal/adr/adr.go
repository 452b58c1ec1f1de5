// Package adr implements the Activity Deployment Registry: it "complements
// [the] Type Registry and maintains a set of activity deployments of
// concrete activity types as WS-Resources" (paper §3.1).
//
// Invariant from the paper: "an activity type must be present in the type
// registry before registration of its deployments. ... In case of failure
// in discovering [a] matching activity type, the deployment registry
// service requests the type registry service for the dynamic registration
// of a new activity type."
package adr

import (
	"fmt"
	"time"

	"glare/internal/activity"
	"glare/internal/atr"
	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/wsrf"
	"glare/internal/xmlutil"
)

// KeyName is the EPR reference-property for deployment resources.
const KeyName = "ActivityDeploymentKey"

// ServiceName is the transport mount point.
const ServiceName = "ActivityDeploymentRegistry"

// Registry is one site's Activity Deployment Registry.
type Registry struct {
	home   *wsrf.Home
	types  *atr.Registry
	broker *wsrf.Broker
	ofType *wsrf.View[map[string][]*wsrf.Resource] // type attribute -> deployments, in key order

	// Hot-path counters; nil (no-op) until SetTelemetry is called.
	registers, byType, removes *telemetry.Counter
}

// New creates a deployment registry bound to the site's type registry.
func New(serviceURL string, types *atr.Registry, clock simclock.Clock, broker *wsrf.Broker) *Registry {
	if clock == nil {
		clock = simclock.Real
	}
	if broker == nil {
		broker = wsrf.NewBroker(clock)
	}
	home := wsrf.NewHome(serviceURL, KeyName, clock)
	return &Registry{
		home:   home,
		types:  types,
		broker: broker,
		ofType: wsrf.NewView(home, byTypeOf),
	}
}

// byTypeOf groups the deployment resources by their documents' type
// attribute without decoding them.
func byTypeOf(all []*wsrf.Resource) map[string][]*wsrf.Resource {
	m := make(map[string][]*wsrf.Resource)
	for _, res := range all {
		var typ string
		res.Read(func(doc *xmlutil.Node) { typ = doc.AttrOr("type", "") })
		m[typ] = append(m[typ], res)
	}
	return m
}

// Home exposes the resource home: the registry's only copy of its
// deployment documents, and the point that stamps, journals, restores and
// adopts them. Restored deployments skip validation, dynamic type
// registration and the DeploymentRefs fixup: those refs replay from the
// type registry's own journal.
func (r *Registry) Home() *wsrf.Home { return r.home }

// SetTelemetry binds the registry's hot-path counters to a site's
// telemetry registry. Call during site assembly, before serving traffic.
func (r *Registry) SetTelemetry(tel *telemetry.Telemetry) {
	r.registers = tel.Counter("glare_adr_registers_total")
	r.byType = tel.Counter("glare_adr_bytype_total")
	r.removes = tel.Counter("glare_adr_removes_total")
}

// Register records a deployment. If the concrete type is not yet known to
// the type registry, a minimal concrete type is registered dynamically.
func (r *Registry) Register(d *activity.Deployment) (epr.EPR, error) {
	r.registers.Inc()
	if err := d.Validate(); err != nil {
		return epr.EPR{}, err
	}
	t, ok := r.types.Lookup(d.Type)
	if !ok {
		// Dynamic registration of a new activity type.
		t = &activity.Type{Name: d.Type}
		if _, err := r.types.Register(t); err != nil {
			return epr.EPR{}, fmt.Errorf("adr: dynamic type registration: %w", err)
		}
	} else if t.Abstract {
		return epr.EPR{}, fmt.Errorf("adr: type %q is abstract and cannot have deployments", d.Type)
	}
	// Enforce the provider's max-deployments bound VO-wide as far as this
	// registry can see (its own records plus the type resource's refs).
	if t.MaxDeployments > 0 {
		if n := len(r.types.DeploymentRefs(d.Type)); n >= t.MaxDeployments {
			return epr.EPR{}, fmt.Errorf("adr: type %q reached its deployment limit (%d)",
				d.Type, t.MaxDeployments)
		}
	}
	if _, err := r.home.Create(d.Name, d.ToXML()); err != nil {
		return epr.EPR{}, err
	}
	e := r.home.EPR(d.Name)
	if err := r.types.AddDeploymentRef(d.Type, e); err != nil {
		r.home.Destroy(d.Name)
		return epr.EPR{}, err
	}
	if r.broker.HasSinks(wsrf.TopicDeployment) {
		r.broker.Publish(wsrf.TopicDeployment, d.Name, d.ToXML())
	}
	return e, nil
}

// Get returns a deployment by name (hash-table path).
func (r *Registry) Get(name string) (*activity.Deployment, bool) {
	res := r.home.Find(name)
	if res == nil {
		return nil, false
	}
	var d *activity.Deployment
	var err error
	res.Read(func(doc *xmlutil.Node) { d, err = activity.DeploymentFromXML(doc) })
	if err != nil {
		return nil, false
	}
	return d, true
}

// GetDocument returns the raw property document of a deployment.
func (r *Registry) GetDocument(name string) (*xmlutil.Node, bool) {
	res := r.home.Find(name)
	if res == nil {
		return nil, false
	}
	return res.Document(), true
}

// LUT returns a deployment resource's LastUpdateTime.
func (r *Registry) LUT(name string) (time.Time, bool) {
	res := r.home.Find(name)
	if res == nil {
		return time.Time{}, false
	}
	return res.LastUpdate(), true
}

// ByType lists local deployments of the given concrete type, in name
// order. It looks the type up in an index of the documents' type
// attributes, rebuilt on the first call after a registry change, and
// decodes only the matches; each is a private copy.
func (r *Registry) ByType(typeName string) []*activity.Deployment {
	r.byType.Inc()
	var out []*activity.Deployment
	for _, res := range r.ofType.Get()[typeName] {
		var d *activity.Deployment
		var err error
		res.Read(func(doc *xmlutil.Node) { d, err = activity.DeploymentFromXML(doc) })
		if err == nil && d.Type == typeName {
			out = append(out, d)
		}
	}
	return out
}

// All returns every local deployment.
func (r *Registry) All() []*activity.Deployment {
	var out []*activity.Deployment
	for _, res := range r.home.All() {
		var d *activity.Deployment
		var err error
		res.Read(func(doc *xmlutil.Node) { d, err = activity.DeploymentFromXML(doc) })
		if err == nil {
			out = append(out, d)
		}
	}
	return out
}

// Len reports the number of registered deployments.
func (r *Registry) Len() int { return r.home.Len() }

// Remove unregisters a deployment and clears its ref in the type resource.
func (r *Registry) Remove(name string) bool {
	r.removes.Inc()
	d, ok := r.Get(name)
	if !ok {
		return false
	}
	if !r.home.Destroy(name) {
		return false
	}
	r.types.RemoveDeploymentRef(d.Type, name)
	r.broker.Publish(wsrf.TopicResourceDestroyed, name, nil)
	return true
}

// UpdateMetrics records a deployment's new metrics and bumps the
// resource's LastUpdateTime, which in turn revives caches holding this
// deployment.
func (r *Registry) UpdateMetrics(name string, m activity.Metrics) error {
	d, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("adr: no such deployment %q", name)
	}
	d.Metrics = m
	if !r.home.Replace(name, d.ToXML()) {
		return fmt.Errorf("adr: no such deployment %q", name)
	}
	// Refresh the EPR registered in the type resource (LUT changed).
	if err := r.types.AddDeploymentRef(d.Type, r.home.EPR(name)); err != nil {
		return err
	}
	r.broker.Publish(wsrf.TopicResourceUpdated, name, nil)
	return nil
}

// SetTermination schedules a deployment resource's expiry.
func (r *Registry) SetTermination(name string, at time.Time) error {
	if !r.home.SetTermination(name, at) {
		return fmt.Errorf("adr: no such deployment %q", name)
	}
	return nil
}

// SweepExpired destroys expired deployment resources.
func (r *Registry) SweepExpired() []string {
	gone := r.home.SweepExpired()
	for _, name := range gone {
		r.broker.Publish(wsrf.TopicResourceDestroyed, name, nil)
	}
	return gone
}

// ExpireByType expires all deployments of a type now ("If an activity type
// expires, its deployments automatically expire"). Running instances are
// the execution engine's concern and finish independently.
func (r *Registry) ExpireByType(typeName string) []string {
	var gone []string
	for _, d := range r.ByType(typeName) {
		if r.home.Destroy(d.Name) {
			gone = append(gone, d.Name)
			r.broker.Publish(wsrf.TopicResourceDestroyed, d.Name, nil)
		}
	}
	return gone
}

// EPR mints the endpoint reference of a deployment resource.
func (r *Registry) EPR(name string) epr.EPR { return r.home.EPR(name) }

// Mount exposes the registry over a transport server.
func (r *Registry) Mount(srv *transport.Server) {
	srv.RegisterService(ServiceName, map[string]transport.Handler{
		"Register": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			d, err := activity.DeploymentFromXML(body)
			if err != nil {
				return nil, err
			}
			e, err := r.Register(d)
			if err != nil {
				return nil, err
			}
			return e.ToXML("DeploymentEPR"), nil
		},
		"Get": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			doc, ok := r.GetDocument(textArg(body))
			if !ok {
				return nil, fmt.Errorf("Get: no such deployment %q", textArg(body))
			}
			return doc, nil
		},
		"GetLUT": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			lut, ok := r.LUT(textArg(body))
			if !ok {
				return nil, fmt.Errorf("GetLUT: no such deployment %q", textArg(body))
			}
			return xmlutil.NewNode("LUT", lut.Format(epr.TimeLayout)), nil
		},
		"GetDeployments": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			out := xmlutil.NewNode("Deployments")
			for _, d := range r.ByType(textArg(body)) {
				out.Add(d.ToXML())
			}
			return out, nil
		},
		"Remove": func(body *xmlutil.Node) (*xmlutil.Node, error) {
			if !r.Remove(textArg(body)) {
				return nil, fmt.Errorf("Remove: no such deployment")
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
