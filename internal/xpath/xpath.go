// Package xpath implements the XPath subset used by GLARE registries and
// the WS-MDS Index baseline to query resource property documents.
//
// Supported grammar (a practical subset of XPath 1.0):
//
//	path     := '/'? step ( '/' step | '//' step )*  |  '//' step ( ... )*
//	step     := ( name | '*' | '..' | '.' | '@' name ) predicate*
//	predicate:= '[' expr ']'
//	expr     := '@' name ( '=' literal )?      attribute existence / equality
//	          | name ( '=' literal )?          child existence / text equality
//	          | 'text()' '=' literal           own text equality
//	          | 'contains(' target ',' literal ')'
//	          | integer                        1-based position
//	literal  := '\'' ... '\'' | '"' ... '"'
//
// The engine is deliberately a linear scan over the document: the paper's
// Index Service queries aggregated documents exactly this way, which is why
// its throughput degrades with the number of registered resources (Fig. 11)
// while GLARE's hash-table named lookup stays flat.
package xpath

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"glare/internal/xmlutil"
)

// Expr is a compiled XPath expression.
type Expr struct {
	src      string
	absolute bool
	steps    []step
	parents  bool // some step is "..", so Select needs a parent map
}

type axis int

const (
	axisChild axis = iota
	axisDescendant
	axisSelf
	axisParent
	axisAttribute
)

type step struct {
	axis  axis
	name  string // element or attribute name; "*" is a wildcard
	preds []pred
}

type predKind int

const (
	predAttrExists predKind = iota
	predAttrEquals
	predChildExists
	predChildEquals
	predTextEquals
	predPosition
	predContains
)

type pred struct {
	kind   predKind
	name   string // attribute or child name ("" for text())
	value  string
	pos    int
	onAttr bool // for contains(): target is an attribute
}

// Compile parses an XPath expression.
func Compile(src string) (*Expr, error) {
	p := &parser{src: src, rest: strings.TrimSpace(src)}
	e, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("xpath: %q: %w", src, err)
	}
	return e, nil
}

// MustCompile is Compile that panics on error; for expression literals.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// String returns the original expression source.
func (e *Expr) String() string { return e.src }

// Tests reports whether the expression can test an element named one of
// names: a child or descendant step or a child predicate names one, or a
// step is the wildcard "*". When it reports false, removing from a document
// subtrees whose elements are all named from names leaves every other
// node's match unchanged.
func (e *Expr) Tests(names ...string) bool {
	named := func(n string) bool { return n == "*" || slices.Contains(names, n) }
	for _, st := range e.steps {
		if (st.axis == axisChild || st.axis == axisDescendant) && named(st.name) {
			return true
		}
		for _, p := range st.preds {
			if (p.kind == predChildExists || p.kind == predChildEquals || p.kind == predContains && !p.onAttr) && named(p.name) {
				return true
			}
		}
	}
	return false
}

// Result holds matched nodes and, for attribute-final paths, strings.
type Result struct {
	Nodes   []*xmlutil.Node
	Strings []string
}

// Empty reports whether the result matched nothing.
func (r Result) Empty() bool { return len(r.Nodes) == 0 && len(r.Strings) == 0 }

// Select evaluates the expression against a document root. The root element
// itself is addressable as the first step of an absolute path, matching how
// aggregated property documents are queried in GT4.
func (e *Expr) Select(root *xmlutil.Node) Result {
	if root == nil {
		return Result{}
	}
	// Current node-set. For absolute paths we start "above" the root with a
	// virtual document node whose only child is root.
	doc := &xmlutil.Node{Name: "#doc", Children: []*xmlutil.Node{root}}
	cur := []*xmlutil.Node{doc}
	var parents map[*xmlutil.Node]*xmlutil.Node
	if e.parents {
		parents = map[*xmlutil.Node]*xmlutil.Node{root: doc}
		registerParents(root, parents)
	}

	var attrOut []string
	for i, st := range e.steps {
		if st.axis == axisAttribute {
			for _, n := range cur {
				if st.name == "*" {
					for _, a := range n.Attrs {
						attrOut = append(attrOut, a.Value)
					}
				} else if v, ok := n.Attr(st.name); ok {
					attrOut = append(attrOut, v)
				}
			}
			if i != len(e.steps)-1 {
				return Result{} // attributes are terminal
			}
			return Result{Strings: attrOut}
		}
		var next []*xmlutil.Node
		for _, n := range cur {
			next = append(next, st.apply(n, parents)...)
		}
		next = dedup(next)
		cur = applyPositional(next, st.preds)
		if len(cur) == 0 {
			return Result{}
		}
	}
	// Drop the virtual document node if it survived (e.g. expression ".").
	out := cur[:0:0]
	for _, n := range cur {
		if n.Name != "#doc" {
			out = append(out, n)
		}
	}
	return Result{Nodes: out}
}

func registerParents(n *xmlutil.Node, parents map[*xmlutil.Node]*xmlutil.Node) {
	for _, c := range n.Children {
		parents[c] = n
		registerParents(c, parents)
	}
}

func (st step) apply(n *xmlutil.Node, parents map[*xmlutil.Node]*xmlutil.Node) []*xmlutil.Node {
	var cand []*xmlutil.Node
	switch st.axis {
	case axisChild:
		for _, c := range n.Children {
			if st.name == "*" || c.Name == st.name {
				cand = append(cand, c)
			}
		}
	case axisDescendant:
		n.Walk(func(d *xmlutil.Node) bool {
			if d != n && (st.name == "*" || d.Name == st.name) {
				cand = append(cand, d)
			}
			return true
		})
	case axisSelf:
		cand = append(cand, n)
	case axisParent:
		if p := parents[n]; p != nil && p.Name != "#doc" {
			cand = append(cand, p)
		}
	}
	var out []*xmlutil.Node
	for _, c := range cand {
		if matchesNonPositional(c, st.preds) {
			out = append(out, c)
		}
	}
	return out
}

func matchesNonPositional(n *xmlutil.Node, preds []pred) bool {
	for _, p := range preds {
		if p.kind == predPosition {
			continue
		}
		if !p.match(n) {
			return false
		}
	}
	return true
}

func applyPositional(ns []*xmlutil.Node, preds []pred) []*xmlutil.Node {
	for _, p := range preds {
		if p.kind != predPosition {
			continue
		}
		if p.pos < 1 || p.pos > len(ns) {
			return nil
		}
		ns = []*xmlutil.Node{ns[p.pos-1]}
	}
	return ns
}

func (p pred) match(n *xmlutil.Node) bool {
	switch p.kind {
	case predAttrExists:
		_, ok := n.Attr(p.name)
		return ok
	case predAttrEquals:
		v, ok := n.Attr(p.name)
		return ok && v == p.value
	case predChildExists:
		return n.First(p.name) != nil
	case predChildEquals:
		for _, c := range n.Children {
			if c.Name == p.name && strings.TrimSpace(c.Text) == p.value {
				return true
			}
		}
		return false
	case predTextEquals:
		return strings.TrimSpace(n.Text) == p.value
	case predContains:
		var target string
		if p.onAttr {
			target, _ = n.Attr(p.name)
		} else if p.name == "" {
			target = n.Text
		} else if c := n.First(p.name); c != nil {
			target = c.Text
		}
		return strings.Contains(target, p.value)
	}
	return false
}

func dedup(ns []*xmlutil.Node) []*xmlutil.Node {
	seen := make(map[*xmlutil.Node]bool, len(ns))
	out := ns[:0]
	for _, n := range ns {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// ---------------------------------------------------------------- parser --

type parser struct {
	src  string
	rest string
}

func (p *parser) parse() (*Expr, error) {
	e := &Expr{src: p.src}
	if p.rest == "" {
		return nil, fmt.Errorf("empty expression")
	}
	nextAxis := axisChild
	if strings.HasPrefix(p.rest, "//") {
		e.absolute = true
		nextAxis = axisDescendant
		p.rest = p.rest[2:]
	} else if strings.HasPrefix(p.rest, "/") {
		e.absolute = true
		p.rest = p.rest[1:]
	} else {
		// Relative expressions search from anywhere under the root, which is
		// how service-group entries are queried; treat as descendant.
		nextAxis = axisDescendant
	}
	for {
		st, err := p.parseStep(nextAxis)
		if err != nil {
			return nil, err
		}
		e.steps = append(e.steps, st)
		e.parents = e.parents || st.axis == axisParent
		if p.rest == "" {
			break
		}
		if strings.HasPrefix(p.rest, "//") {
			nextAxis = axisDescendant
			p.rest = p.rest[2:]
		} else if strings.HasPrefix(p.rest, "/") {
			nextAxis = axisChild
			p.rest = p.rest[1:]
		} else {
			return nil, fmt.Errorf("unexpected %q", p.rest)
		}
	}
	return e, nil
}

func (p *parser) parseStep(ax axis) (step, error) {
	st := step{axis: ax}
	switch {
	case strings.HasPrefix(p.rest, ".."):
		st.axis = axisParent
		st.name = "*"
		p.rest = p.rest[2:]
	case strings.HasPrefix(p.rest, "."):
		st.axis = axisSelf
		st.name = "*"
		p.rest = p.rest[1:]
	case strings.HasPrefix(p.rest, "@"):
		st.axis = axisAttribute
		p.rest = p.rest[1:]
		st.name = p.takeName()
		if st.name == "" {
			return st, fmt.Errorf("missing attribute name")
		}
	default:
		st.name = p.takeName()
		if st.name == "" {
			return st, fmt.Errorf("missing step name at %q", p.rest)
		}
	}
	for strings.HasPrefix(p.rest, "[") {
		pr, err := p.parsePred()
		if err != nil {
			return st, err
		}
		st.preds = append(st.preds, pr)
	}
	return st, nil
}

func (p *parser) takeName() string {
	if strings.HasPrefix(p.rest, "*") {
		p.rest = p.rest[1:]
		return "*"
	}
	i := 0
	for i < len(p.rest) {
		c := p.rest[i]
		if c == '/' || c == '[' || c == ']' || c == '=' || c == ',' || c == ')' || c == ' ' {
			break
		}
		i++
	}
	name := p.rest[:i]
	p.rest = p.rest[i:]
	return name
}

func (p *parser) parsePred() (pred, error) {
	p.rest = p.rest[1:] // consume '['
	p.skipSpace()
	var pr pred
	switch {
	case strings.HasPrefix(p.rest, "contains("):
		p.rest = p.rest[len("contains("):]
		p.skipSpace()
		pr.kind = predContains
		if strings.HasPrefix(p.rest, "@") {
			pr.onAttr = true
			p.rest = p.rest[1:]
			pr.name = p.takeName()
		} else if strings.HasPrefix(p.rest, "text()") {
			p.rest = p.rest[len("text()"):]
		} else {
			pr.name = p.takeName()
		}
		p.skipSpace()
		if !strings.HasPrefix(p.rest, ",") {
			return pr, fmt.Errorf("contains: expected ','")
		}
		p.rest = p.rest[1:]
		p.skipSpace()
		v, err := p.takeLiteral()
		if err != nil {
			return pr, err
		}
		pr.value = v
		p.skipSpace()
		if !strings.HasPrefix(p.rest, ")") {
			return pr, fmt.Errorf("contains: expected ')'")
		}
		p.rest = p.rest[1:]
	case strings.HasPrefix(p.rest, "@"):
		p.rest = p.rest[1:]
		pr.name = p.takeName()
		if pr.name == "" {
			return pr, fmt.Errorf("missing attribute name in predicate")
		}
		p.skipSpace()
		if strings.HasPrefix(p.rest, "=") {
			p.rest = p.rest[1:]
			p.skipSpace()
			v, err := p.takeLiteral()
			if err != nil {
				return pr, err
			}
			pr.kind = predAttrEquals
			pr.value = v
		} else {
			pr.kind = predAttrExists
		}
	case strings.HasPrefix(p.rest, "text()"):
		p.rest = p.rest[len("text()"):]
		p.skipSpace()
		if !strings.HasPrefix(p.rest, "=") {
			return pr, fmt.Errorf("text(): expected '='")
		}
		p.rest = p.rest[1:]
		p.skipSpace()
		v, err := p.takeLiteral()
		if err != nil {
			return pr, err
		}
		pr.kind = predTextEquals
		pr.value = v
	default:
		// position or child name
		if n, rest, ok := takeInt(p.rest); ok {
			pr.kind = predPosition
			pr.pos = n
			p.rest = rest
		} else {
			pr.name = p.takeName()
			if pr.name == "" {
				return pr, fmt.Errorf("bad predicate at %q", p.rest)
			}
			p.skipSpace()
			if strings.HasPrefix(p.rest, "=") {
				p.rest = p.rest[1:]
				p.skipSpace()
				v, err := p.takeLiteral()
				if err != nil {
					return pr, err
				}
				pr.kind = predChildEquals
				pr.value = v
			} else {
				pr.kind = predChildExists
			}
		}
	}
	p.skipSpace()
	if !strings.HasPrefix(p.rest, "]") {
		return pr, fmt.Errorf("unterminated predicate at %q", p.rest)
	}
	p.rest = p.rest[1:]
	return pr, nil
}

func (p *parser) skipSpace() { p.rest = strings.TrimLeft(p.rest, " \t") }

func (p *parser) takeLiteral() (string, error) {
	if p.rest == "" {
		return "", fmt.Errorf("missing literal")
	}
	q := p.rest[0]
	if q != '\'' && q != '"' {
		return "", fmt.Errorf("expected quoted literal at %q", p.rest)
	}
	end := strings.IndexByte(p.rest[1:], q)
	if end < 0 {
		return "", fmt.Errorf("unterminated literal")
	}
	v := p.rest[1 : 1+end]
	p.rest = p.rest[2+end:]
	return v, nil
}

func takeInt(s string) (int, string, bool) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 {
		return 0, s, false
	}
	n, err := strconv.Atoi(s[:i])
	if err != nil {
		return 0, s, false
	}
	return n, s[i:], true
}
