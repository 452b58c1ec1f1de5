package activity

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Hierarchy is an in-memory view over a set of types supporting the
// abstract→concrete resolution of paper Fig. 2: "An abstract type is one
// which has no directly associated deployment. ... Abstract activity types
// are used to discover concrete activity types."
type Hierarchy struct {
	types map[string]*Type
	subs  map[string][]*Type // base name (known or not) -> types listing it as a base
}

// NewHierarchy builds a hierarchy over the given types. Invalid types,
// duplicate names and cycles are rejected; dangling base references are
// allowed (bases may live on other sites and resolve later).
func NewHierarchy(types []*Type) (*Hierarchy, error) {
	h := &Hierarchy{types: make(map[string]*Type, len(types))}
	for _, t := range types {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if _, dup := h.types[t.Name]; dup {
			return nil, fmt.Errorf("activity: duplicate type %q", t.Name)
		}
		h.types[t.Name] = t
	}
	h.link()
	if err := h.checkAcyclic(); err != nil {
		return nil, err
	}
	return h, nil
}

// SkeletonHierarchy indexes types as given, for resolution only: nothing
// is validated, a later duplicate replaces an earlier one, and cycles are
// kept. Every walk keeps a visited set, so a cycle cannot stall or fail a
// resolution. The ATR builds one over the name, abstract flag and bases of
// each registered document (SkeletonFromXML).
func SkeletonHierarchy(types []*Type) *Hierarchy {
	h := &Hierarchy{types: make(map[string]*Type, len(types))}
	for _, t := range types {
		h.types[t.Name] = t
	}
	h.link()
	return h
}

// link fills the reverse base -> subtypes map from h.types.
func (h *Hierarchy) link() {
	h.subs = make(map[string][]*Type)
	for _, t := range h.types {
		for _, b := range t.Base {
			h.subs[b] = append(h.subs[b], t)
		}
	}
}

func (h *Hierarchy) checkAcyclic() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(h.types))
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case grey:
			return fmt.Errorf("activity: type hierarchy cycle through %q", name)
		case black:
			return nil
		}
		color[name] = grey
		if t := h.types[name]; t != nil {
			for _, b := range t.Base {
				if _, known := h.types[b]; known {
					if err := visit(b); err != nil {
						return err
					}
				}
			}
		}
		color[name] = black
		return nil
	}
	names := h.Names()
	for _, n := range names {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns a type by name.
func (h *Hierarchy) Lookup(name string) (*Type, bool) {
	t, ok := h.types[name]
	return t, ok
}

// Names lists all type names in sorted order.
func (h *Hierarchy) Names() []string {
	out := make([]string, 0, len(h.types))
	for n := range h.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Ancestors returns the transitive base types of name (excluding name),
// sorted. Unknown bases are included by name so callers can resolve them
// remotely.
func (h *Hierarchy) Ancestors(name string) []string {
	seen := map[string]bool{}
	var walk func(n string)
	walk = func(n string) {
		t, ok := h.types[n]
		if !ok {
			return
		}
		for _, b := range t.Base {
			if !seen[b] {
				seen[b] = true
				walk(b)
			}
		}
	}
	walk(name)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ConcreteOf resolves an activity type name — abstract or concrete — to
// the concrete types satisfying it, sorted by name: name itself when it is
// a known concrete type, and every concrete type that extends it
// transitively. It walks only the subtype closure of name through the
// reverse base map, so its cost follows the size of the answer, not of
// the hierarchy; a cycle in the closure is walked once.
func (h *Hierarchy) ConcreteOf(name string) []*Type {
	var out []*Type
	if t := h.types[name]; t != nil && !t.Abstract {
		out = append(out, t)
	}
	seen := map[string]bool{name: true}
	stack := []string{name}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range h.subs[n] {
			if seen[t.Name] {
				continue
			}
			seen[t.Name] = true
			stack = append(stack, t.Name)
			if !t.Abstract {
				out = append(out, t)
			}
		}
	}
	slices.SortFunc(out, func(a, b *Type) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// InheritedFunctions returns the functions of a type merged with those of
// all its (known) ancestors; subtypes "inherit functional description of
// the base types".
func (h *Hierarchy) InheritedFunctions(name string) []Function {
	seen := map[string]bool{}
	var out []Function
	add := func(t *Type) {
		for _, f := range t.Functions {
			if !seen[f.Name] {
				seen[f.Name] = true
				out = append(out, f)
			}
		}
	}
	if t, ok := h.types[name]; ok {
		add(t)
	}
	for _, a := range h.Ancestors(name) {
		if t, ok := h.types[a]; ok {
			add(t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
