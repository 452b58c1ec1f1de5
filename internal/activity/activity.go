// Package activity defines GLARE's data model: activity types (functional
// descriptions organized in an abstract/concrete hierarchy) and activity
// deployments (installed executables or Grid/web services).
//
// "An activity type (AT) is a functional or behavioural description, which
// can be used to lookup or deploy an activity. An activity deployment (AD)
// refers to an executable or Grid/web service and describes how they can
// be accessed and executed." (paper §2.2)
package activity

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"glare/internal/xmlutil"
)

// InstallMode selects how a type may be installed on new sites.
type InstallMode string

const (
	// ModeOnDemand lets GLARE install automatically when a client needs a
	// deployment and none exists.
	ModeOnDemand InstallMode = "on-demand"
	// ModeManual makes GLARE notify the site administrator instead.
	ModeManual InstallMode = "manual"
)

// Constraints restrict where a type may be installed (paper Fig. 9).
type Constraints struct {
	Platform string
	OS       string
	Arch     string
}

// Installation describes how a concrete type is installed on demand.
type Installation struct {
	Mode          InstallMode
	Constraints   Constraints
	DeployFileURL string
	DeployFileMD5 string
}

// Function is one behavioural capability of a type (e.g. render, export)
// with named inputs and outputs.
type Function struct {
	Name    string
	Inputs  []string
	Outputs []string
}

// Type is one activity type.
type Type struct {
	// Name is the unique type name, e.g. "JPOVray".
	Name string
	// Base lists the types this one extends, e.g. {"POVray", "Imaging"}.
	// A concrete type inherits the functional description of its bases.
	Base []string
	// Abstract types have no directly associated deployments.
	Abstract bool
	// Domain is a coarse classification, e.g. "Imaging".
	Domain string
	// Functions describe behaviour with possible inputs/outputs.
	Functions []Function
	// Dependencies are other activity types that must be deployed on a
	// site before this one (e.g. JPOVray depends on Java and Ant).
	Dependencies []string
	// Installation describes on-demand deployment; nil means the type
	// cannot be auto-installed.
	Installation *Installation
	// MinDeployments/MaxDeployments bound how many deployments of this
	// type may exist VO-wide; 0 means unbounded (paper §3.3: "a provider
	// can also specify minimum and maximum limits of deployments").
	MinDeployments int
	MaxDeployments int
	// Artifact names the software artifact in the simulated universe that
	// implements this type (substitution for real tarballs).
	Artifact string
}

// Validate checks structural invariants.
func (t *Type) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("activity: type with empty name")
	}
	if t.Abstract && t.Installation != nil {
		return fmt.Errorf("activity: abstract type %q cannot carry an installation", t.Name)
	}
	if t.MinDeployments < 0 || t.MaxDeployments < 0 {
		return fmt.Errorf("activity: type %q: negative deployment bounds", t.Name)
	}
	if t.MaxDeployments > 0 && t.MinDeployments > t.MaxDeployments {
		return fmt.Errorf("activity: type %q: min deployments %d > max %d",
			t.Name, t.MinDeployments, t.MaxDeployments)
	}
	for _, b := range t.Base {
		if b == t.Name {
			return fmt.Errorf("activity: type %q extends itself", t.Name)
		}
	}
	if t.Installation != nil {
		switch t.Installation.Mode {
		case ModeOnDemand, ModeManual:
		case "":
			t.Installation.Mode = ModeOnDemand
		default:
			return fmt.Errorf("activity: type %q: unknown install mode %q", t.Name, t.Installation.Mode)
		}
	}
	return nil
}

// ToXML renders the type as a registry property document (Fig. 9's
// ActivityTypeEntry, extended with the full model).
func (t *Type) ToXML() *xmlutil.Node {
	n := xmlutil.NewNode("ActivityTypeEntry")
	n.SetAttr("name", t.Name)
	if t.Domain != "" {
		n.SetAttr("type", t.Domain)
	}
	if t.Abstract {
		n.SetAttr("abstract", "true")
	}
	for _, b := range t.Base {
		n.Elem("BaseType", b)
	}
	for _, f := range t.Functions {
		fn := n.Elem("Function")
		fn.SetAttr("name", f.Name)
		for _, in := range f.Inputs {
			fn.Elem("Input", in)
		}
		for _, out := range f.Outputs {
			fn.Elem("Output", out)
		}
	}
	if len(t.Dependencies) > 0 {
		n.Elem("Dependency", strings.Join(t.Dependencies, ","))
	}
	if t.MinDeployments > 0 || t.MaxDeployments > 0 {
		lim := n.Elem("DeploymentLimits")
		lim.SetAttr("min", strconv.Itoa(t.MinDeployments))
		lim.SetAttr("max", strconv.Itoa(t.MaxDeployments))
	}
	if t.Artifact != "" {
		n.Elem("Artifact", t.Artifact)
	}
	if inst := t.Installation; inst != nil {
		in := n.Elem("Installation")
		in.SetAttr("mode", string(inst.Mode))
		c := in.Elem("Constraints")
		if inst.Constraints.Platform != "" {
			c.Elem("platform", inst.Constraints.Platform)
		}
		if inst.Constraints.OS != "" {
			c.Elem("os", inst.Constraints.OS)
		}
		if inst.Constraints.Arch != "" {
			c.Elem("arch", inst.Constraints.Arch)
		}
		if inst.DeployFileURL != "" {
			df := in.Elem("DeployFile")
			df.SetAttr("url", inst.DeployFileURL)
			if inst.DeployFileMD5 != "" {
				df.SetAttr("md5sum", inst.DeployFileMD5)
			}
		}
	}
	return n
}

// TypeFromXML parses a type from its property document.
func TypeFromXML(n *xmlutil.Node) (*Type, error) {
	if n == nil || n.Name != "ActivityTypeEntry" {
		return nil, fmt.Errorf("activity: expected <ActivityTypeEntry>")
	}
	t := SkeletonFromXML(n)
	t.Domain = n.AttrOr("type", "")
	t.Artifact = n.ChildText("Artifact")
	for _, fn := range n.Children {
		if fn.Name != "Function" {
			continue
		}
		f := Function{Name: fn.AttrOr("name", "")}
		for _, port := range fn.Children {
			switch port.Name {
			case "Input":
				f.Inputs = append(f.Inputs, strings.TrimSpace(port.Text))
			case "Output":
				f.Outputs = append(f.Outputs, strings.TrimSpace(port.Text))
			}
		}
		t.Functions = append(t.Functions, f)
	}
	if dep := n.ChildText("Dependency"); dep != "" {
		for _, d := range strings.Split(dep, ",") {
			if d = strings.TrimSpace(d); d != "" {
				t.Dependencies = append(t.Dependencies, d)
			}
		}
	}
	if lim := n.First("DeploymentLimits"); lim != nil {
		t.MinDeployments, _ = strconv.Atoi(lim.AttrOr("min", "0"))
		t.MaxDeployments, _ = strconv.Atoi(lim.AttrOr("max", "0"))
	}
	if in := n.First("Installation"); in != nil {
		inst := &Installation{Mode: InstallMode(in.AttrOr("mode", string(ModeOnDemand)))}
		if c := in.First("Constraints"); c != nil {
			inst.Constraints = Constraints{
				Platform: c.ChildText("platform"),
				OS:       c.ChildText("os"),
				Arch:     c.ChildText("arch"),
			}
		}
		if df := in.First("DeployFile"); df != nil {
			inst.DeployFileURL = df.AttrOr("url", "")
			inst.DeployFileMD5 = df.AttrOr("md5sum", "")
		}
		t.Installation = inst
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// SkeletonFromXML reads only what resolution needs from a type document —
// its name, abstract flag and bases — without checking or validating
// anything else (SkeletonHierarchy).
func SkeletonFromXML(n *xmlutil.Node) *Type {
	t := &Type{Name: n.AttrOr("name", ""), Abstract: n.AttrOr("abstract", "") == "true"}
	for _, c := range n.Children {
		if c.Name == "BaseType" {
			t.Base = append(t.Base, strings.TrimSpace(c.Text))
		}
	}
	return t
}

// DeploymentKind distinguishes executables from hosted services.
type DeploymentKind string

const (
	KindExecutable DeploymentKind = "executable"
	KindService    DeploymentKind = "service"
)

// Metrics are the latest per-deployment statistics the Deployment Status
// Monitor gathers from WS-GRAM ("attributes like last execution time,
// return code, last invocation time etc.").
type Metrics struct {
	LastExecutionTime time.Duration
	LastReturnCode    int
	LastInvocation    time.Time
	Invocations       int
}

// Deployment is one installed incarnation of a concrete type.
type Deployment struct {
	// Name is the deployment key, e.g. "jpovray" or "WS-JPOVray".
	Name string
	// Type is the concrete activity type this deploys, e.g. "JPOVray".
	Type string
	// Kind is executable or service.
	Kind DeploymentKind
	// Site is the hosting Grid site name.
	Site string
	// Path/Home locate an executable deployment.
	Path string
	Home string
	// Address is the endpoint URL of a service deployment.
	Address string
	// Env carries variables needed to instantiate the deployment.
	Env map[string]string
	// Metrics holds monitoring data.
	Metrics Metrics
	// Degraded marks a result served from a stale cache entry because the
	// source site was unreachable: it may describe a deployment that has
	// since changed or vanished. Schedulers should prefer non-degraded
	// alternatives.
	Degraded bool
}

// Validate checks structural invariants.
func (d *Deployment) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("activity: deployment with empty name")
	}
	if d.Type == "" {
		return fmt.Errorf("activity: deployment %q has no type", d.Name)
	}
	switch d.Kind {
	case KindExecutable:
		if d.Path == "" {
			return fmt.Errorf("activity: executable deployment %q has no path", d.Name)
		}
	case KindService:
		if d.Address == "" && d.Site == "" {
			return fmt.Errorf("activity: service deployment %q has no address", d.Name)
		}
	default:
		return fmt.Errorf("activity: deployment %q: unknown kind %q", d.Name, d.Kind)
	}
	return nil
}

// ToXML renders the deployment document (paper Fig. 7).
func (d *Deployment) ToXML() *xmlutil.Node {
	n := xmlutil.NewNode("ActivityDeployment")
	n.SetAttr("name", d.Name)
	n.SetAttr("type", d.Type)
	n.SetAttr("category", string(d.Kind))
	if d.Degraded {
		n.SetAttr("degraded", "true")
	}
	if d.Site != "" {
		n.Elem("Site", d.Site)
	}
	switch d.Kind {
	case KindExecutable:
		n.Elem("Path", d.Path)
		if d.Home != "" {
			n.Elem("Home", d.Home)
		}
	case KindService:
		n.Elem("Address", d.Address)
	}
	if len(d.Env) > 0 {
		envN := n.Elem("Environment")
		keys := make([]string, 0, len(d.Env))
		for k := range d.Env {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e := envN.Elem("Env")
			e.SetAttr("name", k)
			e.SetAttr("value", d.Env[k])
		}
	}
	m := n.Elem("Metrics")
	m.Elem("LastExecutionTimeMS", strconv.FormatInt(d.Metrics.LastExecutionTime.Milliseconds(), 10))
	m.Elem("LastReturnCode", strconv.Itoa(d.Metrics.LastReturnCode))
	m.Elem("Invocations", strconv.Itoa(d.Metrics.Invocations))
	if !d.Metrics.LastInvocation.IsZero() {
		m.Elem("LastInvocation", d.Metrics.LastInvocation.Format(time.RFC3339Nano))
	}
	return n
}

// DeploymentFromXML parses a deployment document.
func DeploymentFromXML(n *xmlutil.Node) (*Deployment, error) {
	if n == nil || n.Name != "ActivityDeployment" {
		return nil, fmt.Errorf("activity: expected <ActivityDeployment>")
	}
	d := &Deployment{
		Name:     n.AttrOr("name", ""),
		Type:     n.AttrOr("type", ""),
		Kind:     DeploymentKind(n.AttrOr("category", string(KindExecutable))),
		Site:     n.ChildText("Site"),
		Path:     n.ChildText("Path"),
		Home:     n.ChildText("Home"),
		Address:  n.ChildText("Address"),
		Degraded: n.AttrOr("degraded", "") == "true",
	}
	if envN := n.First("Environment"); envN != nil {
		d.Env = map[string]string{}
		for _, e := range envN.All("Env") {
			d.Env[e.AttrOr("name", "")] = e.AttrOr("value", "")
		}
	}
	if m := n.First("Metrics"); m != nil {
		if ms, err := strconv.ParseInt(m.ChildText("LastExecutionTimeMS"), 10, 64); err == nil {
			d.Metrics.LastExecutionTime = time.Duration(ms) * time.Millisecond
		}
		d.Metrics.LastReturnCode, _ = strconv.Atoi(m.ChildText("LastReturnCode"))
		d.Metrics.Invocations, _ = strconv.Atoi(m.ChildText("Invocations"))
		if ts := m.ChildText("LastInvocation"); ts != "" {
			if t, err := time.Parse(time.RFC3339Nano, ts); err == nil {
				d.Metrics.LastInvocation = t
			}
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
