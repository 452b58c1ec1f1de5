// Package xmlutil implements the property-document tree shared by the
// WSRF resource layer, the XPath engine and the MDS index.
//
// A WS-Resource exposes its state as a resource property document: an XML
// element tree. GLARE's registries aggregate many such documents and query
// them either by name (hash table) or by XPath. This package provides the
// mutable tree, XML (de)serialization, and deep-copy/equality helpers.
package xmlutil

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"
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

// appendAttrValue escapes & < > and " and passes every other byte through,
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

// readers recycles the bufio.Reader encoding/xml would otherwise allocate
// for every Parse of a reader that is not an io.ByteReader.
var readers = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// Parse reads one XML document (or fragment with a single root) into a tree.
// Every string in the tree is a copy, so nothing refers to r or to the
// recycled read buffer once Parse returns.
func Parse(r io.Reader) (*Node, error) {
	if _, ok := r.(io.ByteReader); !ok {
		br := readers.Get().(*bufio.Reader)
		br.Reset(r)
		defer func() {
			br.Reset(nil) // the pool must not keep r reachable
			readers.Put(br)
		}()
		r = br
	}
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlutil: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if !localName(t.Name) {
				return nil, fmt.Errorf("xmlutil: element %s:%s: local part is not a name", t.Name.Space, t.Name.Local)
			}
			n := NewNode(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				if !localName(a.Name) {
					return nil, fmt.Errorf("xmlutil: attribute %s:%s: local part is not a name", a.Name.Space, a.Name.Local)
				}
				n.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmlutil: multiple root elements")
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlutil: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				top.Text += string(t)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlutil: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlutil: unterminated document")
	}
	trimWhitespace(root)
	return root, nil
}

// localName reports whether name's local part is an XML name on its own.
// The tree keeps only local names, so <p:0/> (a name, but one whose local
// part starts with a digit) would encode as the malformed <0/>. The
// decoder has already checked every character as a name character; only
// the first can still be wrong, and past ASCII the decoder itself decides.
func localName(name xml.Name) bool {
	if name.Space == "" || name.Local == "" {
		return true
	}
	if c := name.Local[0]; c < utf8.RuneSelf {
		return c != '-' && c != '.' && (c < '0' || c > '9')
	}
	_, err := xml.NewDecoder(strings.NewReader("<" + name.Local + "/>")).RawToken()
	return err == nil
}

// ParseString parses XML from a string.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }

// MustParse parses XML and panics on error. For use with literals in tests
// and examples.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// trimWhitespace removes pure-formatting whitespace text from elements that
// have children (mixed content is preserved only when non-blank).
func trimWhitespace(n *Node) {
	if strings.TrimSpace(n.Text) == "" {
		n.Text = ""
	} else {
		n.Text = strings.TrimSpace(n.Text)
	}
	for _, c := range n.Children {
		trimWhitespace(c)
	}
}
