package activity

import (
	"strings"
	"testing"
	"time"

	"glare/internal/xmlutil"
)

func jpovray() *Type {
	return &Type{
		Name:   "JPOVray",
		Base:   []string{"POVray", "Imaging"},
		Domain: "Imaging",
		Functions: []Function{
			{Name: "render", Inputs: []string{"scene.pov"}, Outputs: []string{"image.png"}},
		},
		Dependencies: []string{"Java", "Ant"},
		Installation: &Installation{
			Mode:          ModeOnDemand,
			Constraints:   Constraints{Platform: "Intel", OS: "Linux", Arch: "32bit"},
			DeployFileURL: "http://dps.uibk.ac.at/deployfiles/povray.build",
			DeployFileMD5: "d41d8cd9",
		},
		MaxDeployments: 5,
		Artifact:       "JPOVray",
	}
}

func TestTypeRoundTrip(t *testing.T) {
	orig := jpovray()
	n := orig.ToXML()
	// Serialize through real XML to catch encoding issues.
	parsed, err := xmlutil.ParseString(n.String())
	if err != nil {
		t.Fatal(err)
	}
	got, err := TypeFromXML(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "JPOVray" || len(got.Base) != 2 || got.Base[0] != "POVray" {
		t.Fatalf("bases = %v", got.Base)
	}
	if len(got.Dependencies) != 2 || got.Dependencies[1] != "Ant" {
		t.Fatalf("deps = %v", got.Dependencies)
	}
	if got.Installation == nil || got.Installation.Mode != ModeOnDemand {
		t.Fatal("installation lost")
	}
	if got.Installation.Constraints.OS != "Linux" {
		t.Fatalf("constraints = %+v", got.Installation.Constraints)
	}
	if got.Installation.DeployFileURL == "" || got.Installation.DeployFileMD5 != "d41d8cd9" {
		t.Fatal("deploy file ref lost")
	}
	if got.MaxDeployments != 5 {
		t.Fatalf("max deployments = %d", got.MaxDeployments)
	}
	if len(got.Functions) != 1 || got.Functions[0].Inputs[0] != "scene.pov" {
		t.Fatalf("functions = %+v", got.Functions)
	}
	if got.Artifact != "JPOVray" {
		t.Fatal("artifact lost")
	}
}

func TestAbstractTypeRoundTrip(t *testing.T) {
	a := &Type{Name: "Imaging", Abstract: true, Domain: "Imaging"}
	got, err := TypeFromXML(a.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Abstract {
		t.Fatal("abstract flag lost")
	}
}

func TestTypeValidate(t *testing.T) {
	cases := []struct {
		label string
		mut   func(*Type)
	}{
		{"empty name", func(t *Type) { t.Name = "" }},
		{"self base", func(t *Type) { t.Base = []string{"JPOVray"} }},
		{"min>max", func(t *Type) { t.MinDeployments = 9; t.MaxDeployments = 2 }},
		{"negative min", func(t *Type) { t.MinDeployments = -1 }},
		{"bad mode", func(t *Type) { t.Installation.Mode = "weird" }},
		{"abstract with install", func(t *Type) { t.Abstract = true }},
	}
	for _, c := range cases {
		ty := jpovray()
		c.mut(ty)
		if err := ty.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.label)
		}
	}
	ok := jpovray()
	ok.Installation.Mode = ""
	if err := ok.Validate(); err != nil || ok.Installation.Mode != ModeOnDemand {
		t.Fatal("empty mode must default to on-demand")
	}
}

func TestTypeFromXMLRejectsWrongElement(t *testing.T) {
	if _, err := TypeFromXML(xmlutil.NewNode("Nope")); err == nil {
		t.Fatal("wrong element must fail")
	}
	if _, err := TypeFromXML(nil); err == nil {
		t.Fatal("nil must fail")
	}
}

func TestDeploymentRoundTrip(t *testing.T) {
	d := &Deployment{
		Name: "jpovray", Type: "JPOVray", Kind: KindExecutable,
		Site: "altix1.uibk",
		Path: "/opt/glare/deployments/jpovray/bin/jpovray",
		Home: "/opt/glare/deployments/jpovray",
		Env:  map[string]string{"JAVA_HOME": "/opt/java"},
		Metrics: Metrics{
			LastExecutionTime: 1500 * time.Millisecond,
			LastReturnCode:    0,
			Invocations:       3,
			LastInvocation:    time.Date(2005, 11, 1, 2, 3, 4, 0, time.UTC),
		},
	}
	parsed, err := xmlutil.ParseString(d.ToXML().String())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DeploymentFromXML(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "jpovray" || got.Kind != KindExecutable || got.Path != d.Path {
		t.Fatalf("got %+v", got)
	}
	if got.Env["JAVA_HOME"] != "/opt/java" {
		t.Fatal("env lost")
	}
	if got.Metrics.LastExecutionTime != 1500*time.Millisecond || got.Metrics.Invocations != 3 {
		t.Fatalf("metrics = %+v", got.Metrics)
	}
	if !got.Metrics.LastInvocation.Equal(d.Metrics.LastInvocation) {
		t.Fatal("last invocation lost")
	}
}

func TestServiceDeployment(t *testing.T) {
	d := &Deployment{
		Name: "WS-JPOVray", Type: "JPOVray", Kind: KindService,
		Site: "altix1.uibk", Address: "https://altix1:8084/wsrf/services/WS-JPOVray",
	}
	got, err := DeploymentFromXML(d.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if got.Address != d.Address {
		t.Fatal("address lost")
	}
}

func TestDeploymentValidate(t *testing.T) {
	bad := []*Deployment{
		{Name: "", Type: "T", Kind: KindExecutable, Path: "/x"},
		{Name: "d", Type: "", Kind: KindExecutable, Path: "/x"},
		{Name: "d", Type: "T", Kind: KindExecutable},
		{Name: "d", Type: "T", Kind: "strange"},
		{Name: "d", Type: "T", Kind: KindService},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func imagingHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy([]*Type{
		{Name: "Imaging", Abstract: true,
			Functions: []Function{{Name: "export"}}},
		{Name: "POVray", Abstract: true, Base: []string{"Imaging"},
			Functions: []Function{{Name: "render"}}},
		jpovray(),
		{Name: "Wien2k", Domain: "Physics"},
		{Name: "ImageConversion", Abstract: true, Base: []string{"Imaging"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyResolution(t *testing.T) {
	h := imagingHierarchy(t)
	// Abstract lookup resolves to concrete subtype (Fig. 2's flow).
	concrete := h.ConcreteOf("Imaging")
	if len(concrete) != 1 || concrete[0].Name != "JPOVray" {
		t.Fatalf("ConcreteOf(Imaging) = %v", names(concrete))
	}
	concrete = h.ConcreteOf("POVray")
	if len(concrete) != 1 || concrete[0].Name != "JPOVray" {
		t.Fatalf("ConcreteOf(POVray) = %v", names(concrete))
	}
	// A concrete type resolves to itself.
	concrete = h.ConcreteOf("JPOVray")
	if len(concrete) != 1 || concrete[0].Name != "JPOVray" {
		t.Fatalf("ConcreteOf(JPOVray) = %v", names(concrete))
	}
	// Unrelated abstract type resolves to nothing.
	if got := h.ConcreteOf("ImageConversion"); len(got) != 0 {
		t.Fatalf("ConcreteOf(ImageConversion) = %v", names(got))
	}
	if got := h.ConcreteOf("Wien2k"); len(got) != 1 {
		t.Fatalf("standalone concrete = %v", names(got))
	}
}

func names(ts []*Type) []string {
	var out []string
	for _, t := range ts {
		out = append(out, t.Name)
	}
	return out
}

func TestAncestorsAndIsA(t *testing.T) {
	h := imagingHierarchy(t)
	anc := h.Ancestors("JPOVray")
	if strings.Join(anc, ",") != "Imaging,POVray" {
		t.Fatalf("ancestors = %v", anc)
	}
	if !isA(h, "JPOVray", "Imaging") || !isA(h, "JPOVray", "JPOVray") {
		t.Fatal("IsA failed")
	}
	if isA(h, "Wien2k", "Imaging") {
		t.Fatal("Wien2k is not Imaging")
	}
}

func TestInheritedFunctions(t *testing.T) {
	h := imagingHierarchy(t)
	fns := h.InheritedFunctions("JPOVray")
	have := map[string]bool{}
	for _, f := range fns {
		have[f.Name] = true
	}
	if !have["render"] || !have["export"] {
		t.Fatalf("inherited = %v", fns)
	}
}

func TestHierarchyRejectsCycle(t *testing.T) {
	_, err := NewHierarchy([]*Type{
		{Name: "A", Base: []string{"B"}, Abstract: true},
		{Name: "B", Base: []string{"A"}, Abstract: true},
	})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestHierarchyRejectsDuplicates(t *testing.T) {
	_, err := NewHierarchy([]*Type{{Name: "A"}, {Name: "A"}})
	if err == nil {
		t.Fatal("duplicate types must be rejected")
	}
}

func TestHierarchyDanglingBaseAllowed(t *testing.T) {
	h, err := NewHierarchy([]*Type{{Name: "X", Base: []string{"RemoteBase"}}})
	if err != nil {
		t.Fatalf("dangling base must be allowed: %v", err)
	}
	// Unknown bases are reported by name so callers can resolve them from
	// remote registries (iterative lookup).
	anc := h.Ancestors("X")
	if len(anc) != 1 || anc[0] != "RemoteBase" {
		t.Fatalf("ancestors = %v, want [RemoteBase]", anc)
	}
}
