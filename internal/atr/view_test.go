package atr

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"glare/internal/activity"
)

// oracleConcreteOf decodes every registered document and tests each type
// with a walk up its bases: the full-decode scan ConcreteOf replaced.
func oracleConcreteOf(r *Registry, name string) []string {
	types := map[string]*activity.Type{}
	for _, t := range r.Types() {
		types[t.Name] = t
	}
	var out []string
	for _, n := range r.Names() {
		if t := types[n]; t != nil && !t.Abstract && extends(types, n, name) {
			out = append(out, n)
		}
	}
	return out
}

// extends reports whether typ is name or reaches it through the bases of
// known types.
func extends(types map[string]*activity.Type, typ, name string) bool {
	seen := map[string]bool{}
	for stack := []string{typ}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == name {
			return true
		}
		if !seen[n] {
			seen[n] = true
			if t := types[n]; t != nil {
				stack = append(stack, t.Base...)
			}
		}
	}
	return false
}

func typeNames(ts []*activity.Type) []string {
	var out []string
	for _, t := range ts {
		out = append(out, t.Name)
	}
	return out
}

// checkConcreteOf compares ConcreteOf with the oracle for name, and each
// answer with a fresh full decode of its document.
func checkConcreteOf(t *testing.T, r *Registry, name, after string) {
	t.Helper()
	got, err := r.ConcreteOf(name)
	if err != nil {
		t.Fatalf("after %s: ConcreteOf(%q): %v", after, name, err)
	}
	if want := oracleConcreteOf(r, name); !slices.Equal(typeNames(got), want) {
		t.Fatalf("after %s: ConcreteOf(%q) = %v, full decode says %v", after, name, typeNames(got), want)
	}
	for _, ty := range got {
		if full, _ := r.Lookup(ty.Name); !reflect.DeepEqual(ty, full) {
			t.Fatalf("after %s: ConcreteOf(%q) returned %+v, not the full type %+v", after, name, ty, full)
		}
	}
}

func TestRegisterRefusesBaseCycle(t *testing.T) {
	r, _ := fixture()
	for _, ty := range []*activity.Type{
		{Name: "Good"},
		{Name: "A", Abstract: true, Base: []string{"B"}},
		{Name: "B", Abstract: true, Base: []string{"C", "Remote"}},
	} {
		if _, err := r.Register(ty); err != nil {
			t.Fatal(err)
		}
	}
	for _, ty := range []*activity.Type{
		{Name: "C", Base: []string{"A"}},
		{Name: "C", Base: []string{"Good", "B"}},
	} {
		if _, err := r.Register(ty); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("Register(%s extends %v) = %v, want a cycle refusal", ty.Name, ty.Base, err)
		}
	}
	if _, ok := r.Lookup("C"); ok {
		t.Fatal("refused type was registered")
	}
	// A base that closes no cycle is fine, even one reaching the others.
	if _, err := r.Register(&activity.Type{Name: "C", Base: []string{"Good"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(&activity.Type{Name: "D", Base: []string{"A", "C"}}); err != nil {
		t.Fatal(err)
	}
	// The two-type cycle: E extends F before F exists, then F extends E.
	if _, err := r.Register(&activity.Type{Name: "E", Base: []string{"F"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(&activity.Type{Name: "F", Base: []string{"E"}}); err == nil {
		t.Fatal("F extends E extends F was accepted")
	}
	for _, name := range []string{"Good", "A", "E", "F"} {
		checkConcreteOf(t, r, name, "registrations")
	}
}

func TestCycleThatGetsInFailsNoLookup(t *testing.T) {
	r, v := fixture()
	if _, err := r.Register(&activity.Type{Name: "Good"}); err != nil {
		t.Fatal(err)
	}
	// Register refuses the second half of a cycle; replay and replication
	// install documents without asking it.
	r.Home().Restore("A", (&activity.Type{Name: "A", Base: []string{"B"}}).ToXML(), v.Now(), time.Time{})
	r.Home().Adopt("B", (&activity.Type{Name: "B", Base: []string{"A"}}).ToXML(), v.Now(), time.Time{})
	for _, name := range []string{"Good", "A", "B", "Nobody"} {
		checkConcreteOf(t, r, name, "a restored cycle")
	}
	if got, _ := r.ConcreteOf("A"); !slices.Equal(typeNames(got), []string{"A", "B"}) {
		t.Fatalf("ConcreteOf(A) on the cycle = %v", typeNames(got))
	}
}

// TestConcreteOfFollowsEveryWrite interleaves every kind of write the
// registry's home takes — Create, Update, Replace, SetTermination,
// Destroy, SweepExpired, Restore and Adopt — with resolution, and checks
// every answer against a full decode after each step.
func TestConcreteOfFollowsEveryWrite(t *testing.T) {
	m := newMutator(51)
	queries := []string{"Base0", "Base1", "Base2", "Nobody"}
	for i := 0; i < 12; i++ {
		queries = append(queries, fmt.Sprintf("T%02d", i))
	}
	check := func(op string) {
		for _, q := range queries {
			checkConcreteOf(t, m.r, q, op)
		}
	}
	ops := map[string]bool{}
	for i := 0; i < 800; i++ {
		rng := m.rng
		switch rng.Intn(6) {
		case 0:
			// Replace rewrites a type's bases and abstract flag in place;
			// a base may be another T, so cycles come and go.
			name := fmt.Sprintf("T%02d", rng.Intn(12))
			base := fmt.Sprintf("Base%d", rng.Intn(3))
			if rng.Intn(2) == 0 {
				base = fmt.Sprintf("T%02d", rng.Intn(12))
			}
			doc := (&activity.Type{Name: name, Abstract: rng.Intn(3) == 0, Base: []string{base}}).ToXML()
			if m.r.Home().Replace(name, doc) {
				ops["Replace"] = true
				check("Replace " + name)
			}
		case 1:
			// An abstract middle layer: BaseN itself extends BaseM.
			name := fmt.Sprintf("Base%d", rng.Intn(3))
			base := fmt.Sprintf("Base%d", rng.Intn(3))
			if _, err := m.r.Register(&activity.Type{Name: name, Abstract: true, Base: []string{base}}); err == nil {
				ops["Register"] = true
				check("Register " + name)
			}
		default:
			m.step(func(op string) {
				ops[strings.Fields(op)[0]] = true
				check(op)
			})
		}
	}
	for _, op := range []string{"Register", "AddDeploymentRef", "Replace", "SetTermination", "SweepExpired", "Remove", "Restore", "Adopt"} {
		if !ops[op] {
			t.Errorf("the sequence never ran %s", op)
		}
	}
}

// TestConcreteOfAllocsIndependentOfRegistrySize pins that a resolution
// with no write since the last one costs the same at 100 and at 2 000
// registered types.
func TestConcreteOfAllocsIndependentOfRegistrySize(t *testing.T) {
	allocs := func(n int) float64 {
		r, _ := fixture()
		for _, ty := range imagingTypes() {
			if _, err := r.Register(ty); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := r.Register(&activity.Type{Name: fmt.Sprintf("Flat%05d", i), Domain: "Bulk"}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if got, _ := r.ConcreteOf("Imaging"); len(got) != 1 {
				t.Fatalf("ConcreteOf(Imaging) = %v", typeNames(got))
			}
		})
	}
	small, large := allocs(100), allocs(2000)
	if small != large {
		t.Fatalf("ConcreteOf allocations grow with the registry: %v at 100 types, %v at 2000", small, large)
	}
	const budget = 8 // the closure walk, its sorted answer and one decode
	if large > budget {
		t.Fatalf("ConcreteOf allocates %v per call, budget %d", large, budget)
	}
	t.Logf("ConcreteOf(Imaging): %v allocations per call at 100 and at 2000 types", large)
}
