package xpath

import (
	"fmt"
	"testing"

	"glare/internal/xmlutil"
)

var doc = xmlutil.MustParse(`
<ServiceGroup name="atr">
  <Entry key="JPOVray">
    <ActivityTypeEntry name="JPOVray" type="Imaging">
      <BaseType>POVray</BaseType>
      <Dependency>Java,Ant</Dependency>
      <Installation mode="on-demand">
        <Constraints><os>Linux</os><arch>32bit</arch></Constraints>
      </Installation>
    </ActivityTypeEntry>
  </Entry>
  <Entry key="POVray">
    <ActivityTypeEntry name="POVray" type="Imaging" abstract="true">
      <BaseType>Imaging</BaseType>
    </ActivityTypeEntry>
  </Entry>
  <Entry key="Wien2k">
    <ActivityTypeEntry name="Wien2k" type="Physics">
      <Installation mode="manual"/>
    </ActivityTypeEntry>
  </Entry>
</ServiceGroup>`)

func sel(t *testing.T, src string) Result {
	t.Helper()
	e, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return e.Select(doc)
}

func TestAbsoluteChildPath(t *testing.T) {
	r := sel(t, "/ServiceGroup/Entry")
	if len(r.Nodes) != 3 {
		t.Fatalf("entries = %d, want 3", len(r.Nodes))
	}
}

func TestDescendantAxis(t *testing.T) {
	r := sel(t, "//ActivityTypeEntry")
	if len(r.Nodes) != 3 {
		t.Fatalf("types = %d, want 3", len(r.Nodes))
	}
	r = sel(t, "//BaseType")
	if len(r.Nodes) != 2 {
		t.Fatalf("base types = %d, want 2", len(r.Nodes))
	}
}

func TestAttrEqualsPredicate(t *testing.T) {
	r := sel(t, `//ActivityTypeEntry[@name='JPOVray']`)
	if len(r.Nodes) != 1 {
		t.Fatalf("matches = %d, want 1", len(r.Nodes))
	}
	if got := r.Nodes[0].AttrOr("type", ""); got != "Imaging" {
		t.Fatalf("type attr = %q", got)
	}
}

func TestAttrExistsPredicate(t *testing.T) {
	r := sel(t, `//ActivityTypeEntry[@abstract]`)
	if len(r.Nodes) != 1 || r.Nodes[0].AttrOr("name", "") != "POVray" {
		t.Fatalf("abstract match wrong: %v", r.Nodes)
	}
}

func TestChildTextPredicate(t *testing.T) {
	r := sel(t, `//ActivityTypeEntry[BaseType='POVray']`)
	if len(r.Nodes) != 1 || r.Nodes[0].AttrOr("name", "") != "JPOVray" {
		t.Fatalf("child-text match wrong")
	}
}

func TestChildExistsPredicate(t *testing.T) {
	r := sel(t, `//ActivityTypeEntry[Installation]`)
	if len(r.Nodes) != 2 {
		t.Fatalf("Installation holders = %d, want 2", len(r.Nodes))
	}
}

func TestNestedPathWithPredicate(t *testing.T) {
	r := sel(t, `/ServiceGroup/Entry[@key='JPOVray']/ActivityTypeEntry/Installation[@mode='on-demand']`)
	if len(r.Nodes) != 1 {
		t.Fatalf("nested = %d, want 1", len(r.Nodes))
	}
}

func TestAttributeSelection(t *testing.T) {
	r := sel(t, `//ActivityTypeEntry/@name`)
	if len(r.Strings) != 3 {
		t.Fatalf("names = %v", r.Strings)
	}
	want := map[string]bool{"JPOVray": true, "POVray": true, "Wien2k": true}
	for _, s := range r.Strings {
		if !want[s] {
			t.Fatalf("unexpected name %q", s)
		}
	}
}

func TestPositionPredicate(t *testing.T) {
	r := sel(t, `/ServiceGroup/Entry[2]`)
	if len(r.Nodes) != 1 || r.Nodes[0].AttrOr("key", "") != "POVray" {
		t.Fatalf("position: got %v", r.Nodes)
	}
	if !sel(t, `/ServiceGroup/Entry[9]`).Empty() {
		t.Fatal("out-of-range position must be empty")
	}
}

func TestTextPredicate(t *testing.T) {
	r := sel(t, `//os[text()='Linux']`)
	if len(r.Nodes) != 1 {
		t.Fatalf("text() = %d, want 1", len(r.Nodes))
	}
}

func TestContains(t *testing.T) {
	r := sel(t, `//ActivityTypeEntry[contains(Dependency,'Java')]`)
	if len(r.Nodes) != 1 || r.Nodes[0].AttrOr("name", "") != "JPOVray" {
		t.Fatal("contains(child) failed")
	}
	r = sel(t, `//ActivityTypeEntry[contains(@name,'POV')]`)
	if len(r.Nodes) != 2 {
		t.Fatalf("contains(@attr) = %d, want 2", len(r.Nodes))
	}
}

func TestRelativeExpressionSearchesEverywhere(t *testing.T) {
	r := sel(t, `Entry[@key='Wien2k']`)
	if len(r.Nodes) != 1 {
		t.Fatalf("relative = %d, want 1", len(r.Nodes))
	}
}

func TestWildcard(t *testing.T) {
	r := sel(t, `/ServiceGroup/*`)
	if len(r.Nodes) != 3 {
		t.Fatalf("wildcard = %d, want 3", len(r.Nodes))
	}
	r = sel(t, `//Constraints/*`)
	if len(r.Nodes) != 2 {
		t.Fatalf("constraints children = %d, want 2", len(r.Nodes))
	}
}

func TestParentAxis(t *testing.T) {
	r := sel(t, `//BaseType[text()='POVray']/../@name`)
	if len(r.Strings) != 1 || r.Strings[0] != "JPOVray" {
		t.Fatalf("parent axis: %v", r.Strings)
	}
}

func TestNilRoot(t *testing.T) {
	if !MustCompile("//x").Select(nil).Empty() {
		t.Fatal("nil root must select nothing")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"//",
		"/a[",
		"/a[@]",
		"/a[text()]",
		"/a[b='unterminated]",
		"/a]b",
		"/@x/y", // attribute step must be terminal
	}
	for _, src := range bad {
		e, err := Compile(src)
		if err == nil {
			// "/@x/y" compiles but must fail at evaluation time.
			if src == "/@x/y" {
				if !e.Select(doc).Empty() {
					t.Errorf("%q: expected empty result", src)
				}
				continue
			}
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

func TestDedupAcrossDescendant(t *testing.T) {
	d := xmlutil.MustParse(`<r><a><a><b/></a></a></r>`)
	r := MustCompile(`//a//b`).Select(d)
	if len(r.Nodes) != 1 {
		t.Fatalf("dedup: %d nodes, want 1", len(r.Nodes))
	}
}

// The engine must scale linearly (not explode) over wide documents; this
// also guards against accidental O(n^2) regressions via a budget check in
// benchmarks, here we only assert correctness on a large doc.
func TestLargeDocument(t *testing.T) {
	root := xmlutil.NewNode("ServiceGroup")
	for i := 0; i < 500; i++ {
		e := root.Elem("Entry")
		e.SetAttr("key", fmt.Sprintf("t%03d", i))
		te := e.Elem("ActivityTypeEntry")
		te.SetAttr("name", fmt.Sprintf("t%03d", i))
	}
	r := MustCompile(`/ServiceGroup/Entry[@key='t123']/ActivityTypeEntry`).Select(root)
	if len(r.Nodes) != 1 {
		t.Fatalf("large doc lookup = %d", len(r.Nodes))
	}
}

func TestTests(t *testing.T) {
	names := []string{"MemberEPR", "Address"}
	for src, want := range map[string]bool{
		`//ActivityTypeEntry[@name='x']`:            false,
		`//ActivityTypeEntry[BaseType='x']/..`:      false,
		`/ServiceGroup/Entry[2]/@key`:               false,
		`//Entry[contains(@Address, 'x')]`:          false,
		`//Entry/.`:                                 false,
		`//Entry/MemberEPR`:                         true,
		`Address`:                                   true,
		`//Entry[MemberEPR]`:                        true,
		`//Entry[Address='x']/ActivityTypeEntry`:    true,
		`//Entry[contains(Address, 'x')]`:           true,
		`//Entry/*[1]`:                              true,
		`//*[@name='x']`:                            true,
		`//ActivityTypeEntry[DeployedOn='s']/../..`: false,
	} {
		if got := MustCompile(src).Tests(names...); got != want {
			t.Errorf("%s: Tests = %v, want %v", src, got, want)
		}
	}
}
