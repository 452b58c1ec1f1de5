package activity

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// isA reports whether typ is name or (transitively) extends it. With
// scanConcreteOf it is the full-scan resolution ConcreteOf replaced, kept
// as the oracle the closure walk is checked against.
func isA(h *Hierarchy, typ, name string) bool {
	return typ == name || slices.Contains(h.Ancestors(typ), name)
}

// scanConcreteOf tests every known type with isA, in name order.
func scanConcreteOf(h *Hierarchy, name string) []string {
	var out []string
	for _, tn := range h.Names() {
		if t, _ := h.Lookup(tn); !t.Abstract && isA(h, tn, name) {
			out = append(out, tn)
		}
	}
	return out
}

// checkAgainstOracle compares ConcreteOf with the scan for every known
// type, every base named anywhere and one name nobody uses. Ancestors
// keeps a visited set, so the oracle also terminates on a cyclic input.
func checkAgainstOracle(t *testing.T, h *Hierarchy, types []*Type) {
	t.Helper()
	queries := []string{"Nobody"}
	for _, ty := range types {
		queries = append(queries, ty.Name)
		queries = append(queries, ty.Base...)
	}
	for _, name := range queries {
		want := scanConcreteOf(h, name)
		if got := names(h.ConcreteOf(name)); !slices.Equal(got, want) {
			t.Fatalf("ConcreteOf(%q) = %v, scan oracle = %v", name, got, want)
		}
	}
}

// randomHierarchy draws n types over a DAG: each type extends up to three
// earlier types or remote (unregistered) bases, so diamonds, multiple
// bases, dangling bases and abstract chains all occur. With back > 0 that
// many base edges pointing to later types are added, which may close
// cycles.
func randomHierarchy(r *rand.Rand, n, back int) []*Type {
	types := make([]*Type, n)
	for i := range types {
		t := &Type{Name: fmt.Sprintf("T%03d", i), Abstract: r.Intn(3) == 0}
		for k := r.Intn(4); k > 0 && i > 0; k-- {
			if r.Intn(5) == 0 {
				t.Base = append(t.Base, fmt.Sprintf("Remote%d", r.Intn(3)))
			} else {
				t.Base = append(t.Base, types[r.Intn(i)].Name)
			}
		}
		types[i] = t
	}
	for ; back > 0 && n > 1; back-- {
		i := r.Intn(n - 1)
		j := i + 1 + r.Intn(n-1-i)
		types[i].Base = append(types[i].Base, types[j].Name)
	}
	return types
}

func TestConcreteOfMatchesScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		types := randomHierarchy(r, 1+r.Intn(40), 0)
		h, err := NewHierarchy(types)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAgainstOracle(t, h, types)
		// The ATR resolves over skeletons read back from the documents.
		skel := make([]*Type, len(types))
		for i, ty := range types {
			skel[i] = SkeletonFromXML(ty.ToXML())
		}
		checkAgainstOracle(t, SkeletonHierarchy(skel), types)
	}
}

func TestConcreteOfSurvivesCycles(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		types := randomHierarchy(r, 2+r.Intn(30), 1+r.Intn(4))
		checkAgainstOracle(t, SkeletonHierarchy(types), types)
	}
	h := SkeletonHierarchy([]*Type{
		{Name: "Good"},
		{Name: "A", Base: []string{"B"}},
		{Name: "B", Base: []string{"A"}},
	})
	if got := names(h.ConcreteOf("Good")); !slices.Equal(got, []string{"Good"}) {
		t.Fatalf("ConcreteOf(Good) next to a cycle = %v", got)
	}
	if got := names(h.ConcreteOf("A")); !slices.Equal(got, []string{"A", "B"}) {
		t.Fatalf("ConcreteOf(A) on the cycle = %v", got)
	}
}

func TestSkeletonFromXMLKeepsResolutionFields(t *testing.T) {
	full := jpovray()
	full.Abstract, full.Installation = true, nil
	s := SkeletonFromXML(full.ToXML())
	if s.Name != full.Name || !s.Abstract || !slices.Equal(s.Base, full.Base) {
		t.Fatalf("skeleton = %+v", s)
	}
	if s.Domain != "" || s.Functions != nil || s.Installation != nil {
		t.Fatalf("skeleton decoded more than name, abstract and bases: %+v", s)
	}
}

// FuzzConcreteOf builds a hierarchy of up to 16 types from the input:
// each byte pair either marks a type abstract or adds a base, which may be
// another type (possibly closing a cycle, possibly the type itself) or a
// remote name. Every answer must match the scan oracle; on a cyclic input
// that also proves the walk terminates.
func FuzzConcreteOf(f *testing.F) {
	f.Add([]byte{4, 1, 0, 2, 1, 3, 1, 3, 2})          // diamond 3 -> {1, 2} -> 0
	f.Add([]byte{3, 0, 1, 1, 0})                      // two-type cycle
	f.Add([]byte{5, 0x81, 0, 1, 0, 2, 1, 3, 2, 4, 9}) // abstract chain, remote base
	f.Add([]byte{2, 1, 1})                            // self-base
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%16 + 1
		types := make([]*Type, n)
		for i := range types {
			types[i] = &Type{Name: fmt.Sprintf("T%02d", i)}
		}
		for k := 1; k+1 < len(data); k += 2 {
			ty := types[int(data[k]&0x7f)%n]
			if data[k]&0x80 != 0 {
				ty.Abstract = true
				continue
			}
			if b := int(data[k+1]) % (n + 2); b < n {
				ty.Base = append(ty.Base, types[b].Name)
			} else {
				ty.Base = append(ty.Base, fmt.Sprintf("Remote%d", b-n))
			}
		}
		if h, err := NewHierarchy(types); err == nil {
			checkAgainstOracle(t, h, types)
		}
		checkAgainstOracle(t, SkeletonHierarchy(types), types)
	})
}
