// Package xmlutil implements the property-document tree shared by the
// WSRF resource layer, the XPath engine and the MDS index.
//
// A WS-Resource exposes its state as a resource property document: an XML
// element tree. GLARE's registries aggregate many such documents and query
// them either by name (hash table) or by XPath. This package provides the
// mutable tree, XML (de)serialization, and deep-copy/equality helpers.
package xmlutil

import (
	"encoding/xml"
	"slices"
	"strings"
)

// Attr is a single XML attribute. Attributes keep insertion order so that
// serialization is deterministic.
type Attr struct {
	Name  string
	Value string
}

// Node is one element of a property document.
type Node struct {
	Name     string
	Attrs    []Attr
	Children []*Node
	Text     string // character data directly inside this element
}

// NewNode creates an element with the given name and optional text.
func NewNode(name string, text ...string) *Node {
	n := &Node{Name: name}
	if len(text) > 0 {
		n.Text = strings.Join(text, "")
	}
	return n
}

// Elem creates a child element with the given name and text, appends it and
// returns the child (for chaining further construction).
func (n *Node) Elem(name string, text ...string) *Node {
	c := NewNode(name, text...)
	n.Children = append(n.Children, c)
	return c
}

// Add appends existing child nodes and returns the receiver.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// SetAttr sets (or replaces) an attribute and returns the receiver.
func (n *Node) SetAttr(name, value string) *Node {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute or a default.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// First returns the first direct child with the given name, or nil.
func (n *Node) First(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// All returns every direct child with the given name.
func (n *Node) All(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// ChildText returns the text of the first child with the given name, or "".
func (n *Node) ChildText(name string) string {
	if c := n.First(name); c != nil {
		return strings.TrimSpace(c.Text)
	}
	return ""
}

// Remove deletes the first direct child equal (by pointer) to target and
// reports whether it was found.
func (n *Node) Remove(target *Node) bool {
	for i, c := range n.Children {
		if c == target {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return true
		}
	}
	return false
}

// Walk visits n and all descendants in document order. Returning false from
// fn prunes the subtree below the visited node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Descendants returns every descendant (excluding n) with the given name;
// "*" matches all element names.
func (n *Node) Descendants(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		c.Walk(func(d *Node) bool {
			if name == "*" || d.Name == name {
				out = append(out, d)
			}
			return true
		})
	}
	return out
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	c := &Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for _, ch := range n.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return c
}

// Equal reports deep structural equality, ignoring attribute order.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Name != o.Name || strings.TrimSpace(n.Text) != strings.TrimSpace(o.Text) ||
		len(n.Attrs) != len(o.Attrs) || len(n.Children) != len(o.Children) {
		return false
	}
	am, bm := map[string]string{}, map[string]string{}
	for _, a := range n.Attrs {
		am[a.Name] = a.Value
	}
	for _, a := range o.Attrs {
		bm[a.Name] = a.Value
	}
	for k, v := range am {
		if bm[k] != v {
			return false
		}
	}
	for i := range n.Children {
		if !n.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// AppendTo appends the compact XML encoding of the subtree to dst and
// returns the extended slice. It is the one encoder: String, the wire
// envelopes and the WAL records all go through it. dst is grown up front
// to hold the tree's unescaped size, so most encodings allocate once.
func (n *Node) AppendTo(dst []byte) []byte {
	return n.appendXML(slices.Grow(dst, n.size()), false, 0)
}

// String serializes the subtree as compact XML.
func (n *Node) String() string { return string(n.AppendTo(nil)) }

// Indent serializes the subtree as indented XML.
func (n *Node) Indent() string { return string(n.appendXML(nil, true, 0)) }

// size is the length of the compact encoding before escaping.
func (n *Node) size() int {
	s := 2*len(n.Name) + 5 + len(n.Text)
	for _, a := range n.Attrs {
		s += len(a.Name) + len(a.Value) + 4
	}
	for _, c := range n.Children {
		s += c.size()
	}
	return s
}

func (n *Node) appendXML(b []byte, indent bool, depth int) []byte {
	if indent {
		b = appendPad(b, depth)
	}
	b = append(b, '<')
	b = append(b, n.Name...)
	for _, a := range n.Attrs {
		b = append(b, ' ')
		b = append(b, a.Name...)
		b = append(b, '=', '"')
		b = appendAttrValue(b, a.Value)
		b = append(b, '"')
	}
	if len(n.Children) == 0 && n.Text == "" {
		b = append(b, '/', '>')
		if indent {
			b = append(b, '\n')
		}
		return b
	}
	b = append(b, '>')
	b = appendText(b, n.Text)
	if len(n.Children) > 0 {
		if indent {
			b = append(b, '\n')
		}
		for _, c := range n.Children {
			b = c.appendXML(b, indent, depth+1)
		}
		if indent {
			b = appendPad(b, depth)
		}
	}
	b = append(b, '<', '/')
	b = append(b, n.Name...)
	b = append(b, '>')
	if indent {
		b = append(b, '\n')
	}
	return b
}

func appendPad(b []byte, depth int) []byte {
	for i := 0; i < depth; i++ {
		b = append(b, ' ', ' ')
	}
	return b
}

// appendAttrValue escapes & < > and " and writes CR as &#xD;, which a
// parser would otherwise read back as LF. Every other byte passes through,
// invalid UTF-8 and control characters included.
func appendAttrValue(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		case '\r':
			esc = "&#xD;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		last = i + 1
	}
	return append(b, s[last:]...)
}

// appendText copies text verbatim when xml.EscapeText would leave it
// unchanged (printable ASCII other than " ' & < >) and otherwise lets
// xml.EscapeText write straight into b.
func appendText(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\'', c == '&', c == '<', c == '>':
			w := sliceWriter{b}
			_ = xml.EscapeText(&w, []byte(s)) // sliceWriter never fails
			return w.b
		}
	}
	return append(b, s...)
}

// sliceWriter appends everything written to it to b.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
