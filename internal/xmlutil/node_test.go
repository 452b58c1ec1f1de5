package xmlutil

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestBuildAndQueryTree(t *testing.T) {
	n := NewNode("Root")
	n.SetAttr("version", "1")
	child := n.Elem("Child", "hello")
	child.SetAttr("id", "c1")
	n.Elem("Child", "world")
	n.Elem("Other")

	if got := len(n.All("Child")); got != 2 {
		t.Fatalf("All(Child) = %d, want 2", got)
	}
	if got := n.First("Child").Text; got != "hello" {
		t.Fatalf("First(Child).Text = %q", got)
	}
	if got := n.ChildText("Child"); got != "hello" {
		t.Fatalf("ChildText = %q", got)
	}
	if v, ok := n.First("Child").Attr("id"); !ok || v != "c1" {
		t.Fatalf("Attr(id) = %q,%v", v, ok)
	}
	if n.First("Missing") != nil {
		t.Fatal("First(Missing) should be nil")
	}
	if got := n.AttrOr("version", "x"); got != "1" {
		t.Fatalf("AttrOr = %q", got)
	}
	if got := n.AttrOr("nope", "x"); got != "x" {
		t.Fatalf("AttrOr default = %q", got)
	}
}

func TestSetAttrReplaces(t *testing.T) {
	n := NewNode("A")
	n.SetAttr("k", "1")
	n.SetAttr("k", "2")
	if len(n.Attrs) != 1 {
		t.Fatalf("attrs = %d, want 1", len(n.Attrs))
	}
	if v, _ := n.Attr("k"); v != "2" {
		t.Fatalf("k = %q, want 2", v)
	}
}

func TestRemove(t *testing.T) {
	n := NewNode("A")
	c1 := n.Elem("B")
	c2 := n.Elem("B")
	if !n.Remove(c1) {
		t.Fatal("Remove(c1) failed")
	}
	if n.Remove(c1) {
		t.Fatal("Remove(c1) twice should fail")
	}
	if len(n.Children) != 1 || n.Children[0] != c2 {
		t.Fatal("wrong child remains")
	}
}

func TestRoundTrip(t *testing.T) {
	src := `<Build baseDir="/tmp/papers/" defaultTask="Deploy" name="Povray">
  <Step name="Init" task="mkdir-p" timeout="10">
    <Env name="POVRAY_HOME" value="$DEPLOYMENT_DIR/povray/"/>
    <Property name="argument" value="$POVRAY_HOME"/>
  </Step>
  <Step name="Download" depends="Init" task="globus-url-copy">
    <Property name="source" value="http://www.povray.org/ft...povlinux-3.6.tgz"/>
  </Step>
</Build>`
	n, err := ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n.Name != "Build" || n.AttrOr("name", "") != "Povray" {
		t.Fatalf("bad root: %s", n.Name)
	}
	steps := n.All("Step")
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[1].AttrOr("depends", "") != "Init" {
		t.Fatal("depends lost")
	}
	// Serialize and reparse; must be structurally equal.
	again, err := ParseString(n.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !n.Equal(again) {
		t.Fatalf("round trip not equal:\n%s\n%s", n.Indent(), again.Indent())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"<a><b></a>",
		"<a/><b/>",
		"no xml at all<",
		"<p:0/>",        // the tree keeps "0", which is not a name
		`<a p:-x="1"/>`, // likewise for an attribute
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestEscaping(t *testing.T) {
	n := NewNode("A", "a < b & c > d")
	n.SetAttr("attr", `x<y>"z"&w`)
	out, err := ParseString(n.String())
	if err != nil {
		t.Fatalf("reparse escaped: %v\nxml: %s", err, n.String())
	}
	if out.Text != "a < b & c > d" {
		t.Fatalf("text = %q", out.Text)
	}
	if v, _ := out.Attr("attr"); v != `x<y>"z"&w` {
		t.Fatalf("attr = %q", v)
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := MustParse(`<a x="1"><b>t</b></a>`)
	c := n.Clone()
	c.First("b").Text = "changed"
	c.SetAttr("x", "2")
	if n.First("b").Text != "t" {
		t.Fatal("clone shares child text")
	}
	if v, _ := n.Attr("x"); v != "1" {
		t.Fatal("clone shares attrs")
	}
}

func TestDescendantsAndWalk(t *testing.T) {
	n := MustParse(`<r><a><b/><b/></a><b/></r>`)
	if got := len(n.Descendants("b")); got != 3 {
		t.Fatalf("Descendants(b) = %d", got)
	}
	if got := len(n.Descendants("*")); got != 4 {
		t.Fatalf("Descendants(*) = %d", got)
	}
	// Walk pruning: stop below <a>.
	count := 0
	n.Walk(func(x *Node) bool {
		count++
		return x.Name != "a"
	})
	if count != 3 { // r, a, b(top-level)
		t.Fatalf("pruned walk visited %d", count)
	}
}

func TestEqualIgnoresAttrOrder(t *testing.T) {
	a := MustParse(`<x p="1" q="2"/>`)
	b := MustParse(`<x q="2" p="1"/>`)
	if !a.Equal(b) {
		t.Fatal("attr order should not matter")
	}
	c := MustParse(`<x p="1" q="3"/>`)
	if a.Equal(c) {
		t.Fatal("different attr values must differ")
	}
}

// Property: any tree built from sanitized names/texts survives a
// serialize→parse round trip structurally intact.
func TestQuickRoundTrip(t *testing.T) {
	sanitize := func(s string, forName bool) string {
		var b strings.Builder
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
				b.WriteRune(r)
			case r >= '0' && r <= '9' && !forName:
				b.WriteRune(r)
			}
		}
		out := b.String()
		if forName && out == "" {
			return "elem"
		}
		return out
	}
	f := func(names [][3]string) bool {
		root := NewNode("root")
		cur := root
		for _, trip := range names {
			c := cur.Elem(sanitize(trip[0], true), sanitize(trip[1], false))
			c.SetAttr("a"+sanitize(trip[2], true), sanitize(trip[2], false))
			cur = c
		}
		again, err := ParseString(root.String())
		if err != nil {
			t.Logf("parse error: %v", err)
			return false
		}
		return root.Equal(again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseKeepsSiblingOrder(t *testing.T) {
	n := MustParse(`<r><c>2</c><a/><c>1</c><b/></r>`)
	var got []string
	for _, c := range n.Children {
		got = append(got, c.Name+c.Text)
	}
	want := []string{"c2", "a", "c1", "b"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// The escapers and writer the encoder had before it escaped in place; they
// are the oracle the in-place encoder must match byte for byte.
func oracleEscapeText(s string) string {
	var b bytes.Buffer
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}

func oracleEscapeAttr(s string) string {
	return strings.NewReplacer(
		"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\r", "&#xD;",
	).Replace(s)
}

func oracleWrite(n *Node, b *bytes.Buffer, indent, depth int) {
	pad := ""
	if indent >= 0 {
		pad = strings.Repeat("  ", depth)
		b.WriteString(pad)
	}
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		fmt.Fprintf(b, " %s=\"%s\"", a.Name, oracleEscapeAttr(a.Value))
	}
	if len(n.Children) == 0 && n.Text == "" {
		b.WriteString("/>")
		if indent >= 0 {
			b.WriteByte('\n')
		}
		return
	}
	b.WriteByte('>')
	if n.Text != "" {
		b.WriteString(oracleEscapeText(n.Text))
	}
	if len(n.Children) > 0 {
		if indent >= 0 {
			b.WriteByte('\n')
		}
		for _, c := range n.Children {
			oracleWrite(c, b, indent, depth+1)
		}
		if indent >= 0 {
			b.WriteString(pad)
		}
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
	if indent >= 0 {
		b.WriteByte('\n')
	}
}

func oracleString(n *Node, indent int) string {
	var b bytes.Buffer
	oracleWrite(n, &b, indent, 0)
	return b.String()
}

// hostile is what random names, attribute values and texts are made of:
// every byte class the two escapers treat differently.
var hostile = []string{
	"a", "Z", "0", " ", "-", "&", "<", ">", `"`, "'", "\t", "\n", "\r",
	"\x00", "\x01", "\x08", "\x0b", "\x1b", "\x1f", "\x7f",
	"é", "世", "😀", "\u2028", "\ufffd", "\xff", "\xc3", "\xed\xa0\x80",
	"&amp;", "]]>",
}

func randomString(r *rand.Rand) string {
	var b strings.Builder
	for i, n := 0, r.Intn(8); i < n; i++ {
		b.WriteString(hostile[r.Intn(len(hostile))])
	}
	return b.String()
}

func randomTree(r *rand.Rand, depth int) *Node {
	n := NewNode(randomString(r))
	for i, k := 0, r.Intn(4); i < k; i++ {
		n.Attrs = append(n.Attrs, Attr{Name: randomString(r), Value: randomString(r)})
	}
	if r.Intn(3) > 0 {
		n.Text = randomString(r)
	}
	if depth < 4 {
		for i, k := 0, r.Intn(4); i < k; i++ {
			n.Children = append(n.Children, randomTree(r, depth+1))
		}
	}
	return n
}

// Property: for trees over hostile names, attributes and text, String and
// Indent are byte-identical to the replacer/EscapeText oracle.
func TestEncoderMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			n := randomTree(r, 0)
			if got, want := n.String(), oracleString(n, -1); got != want {
				t.Fatalf("seed %d tree %d: String\n got %q\nwant %q", seed, i, got, want)
			}
			if got, want := n.Indent(), oracleString(n, 0); got != want {
				t.Fatalf("seed %d tree %d: Indent\n got %q\nwant %q", seed, i, got, want)
			}
			if got := string(n.AppendTo([]byte("prefix"))); got != "prefix"+n.String() {
				t.Fatalf("seed %d tree %d: AppendTo dropped its prefix: %q", seed, i, got)
			}
		}
	}
}

// hideByteReader strips io.ByteReader from r, so Parse takes its pooled
// bufio.Reader path.
func hideByteReader(s string) io.Reader { return struct{ io.Reader }{strings.NewReader(s)} }

// A tree returned by Parse shares nothing with the pooled reader: later
// parses that reuse the reader leave it unchanged.
func TestParsedTreeSurvivesReaderReuse(t *testing.T) {
	first, err := Parse(hideByteReader(`<Doc id="first"><Item k="v">one</Item><Item>two &amp; three</Item></Doc>`))
	if err != nil {
		t.Fatal(err)
	}
	before := first.String()
	for i := 0; i < 50; i++ {
		doc := fmt.Sprintf(`<Other n="%d">%s</Other>`, i, strings.Repeat("overwrite ", 500))
		if _, err := Parse(hideByteReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if after := first.String(); after != before {
		t.Fatalf("tree changed after reader reuse:\n%s\n%s", before, after)
	}
}

// xmlLiterals returns the string literals that look like XML documents in
// the Go files matching pattern.
func xmlLiterals(tb testing.TB, pattern string) []string {
	files, err := filepath.Glob(pattern)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(strings.TrimSpace(s), "<") {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// Envelope shapes the transport exchanges (its tests build them as trees,
// not literals): a request with trace, clock and deadline headers, an
// answer, an application fault and an overload fault.
var envelopeSeeds = []string{
	`<Envelope><Operation>Say</Operation><Trace trace="t1" span="s1"/><HLC t="2026-01-02T03:04:05.123456789Z" site="a"/><Deadline budget_ms="142.512"/><Body><Msg>hello</Msg></Body></Envelope>`,
	`<Envelope><HLC t="2026-01-02T03:04:05Z" site="b"/><Body><Said>hello</Said></Body></Envelope>`,
	`<Envelope><Fault>nothing to say</Fault></Envelope>`,
	`<Envelope><Fault code="unavailable" reason="shed">overloaded: shed</Fault></Envelope>`,
	`<a x="&#xD;&#xA;y&#xD;"/>`,
}

// Parse never panics; it accepts exactly what oracleParse accepts (short of
// the nesting bound) and builds the same tree; and whatever it accepts,
// String encodes so that a second Parse reads the same tree back.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{"*_test.go", "../deployfile/*_test.go", "../transport/*_test.go", "../../cost_test.go"} {
		for _, s := range xmlLiterals(f, pattern) {
			f.Add(s)
		}
	}
	for _, s := range envelopeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if d := differFromOracle(doc); d != "" {
			t.Fatalf("%q: %s", doc, d)
		}
		n, err := Parse(hideByteReader(doc))
		if err != nil {
			return
		}
		enc := n.String()
		again, err := ParseString(enc)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", enc, err)
		}
		if got := again.String(); got != enc {
			t.Fatalf("round trip changed the tree:\n  doc %q\n  enc %q\nagain %q", doc, enc, got)
		}
	})
}

// readers recycles the bufio.Reader encoding/xml would otherwise allocate
// for every Parse of a reader that is not an io.ByteReader.
var readers = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// oracleParse is the parser Parse replaced, kept as it was: a loop over
// encoding/xml's Decoder.Token. Parse must accept exactly what it accepts
// (short of the nesting bound) and build a tree with the same String.
//
// Every string in the tree is a copy, so nothing refers to r or to the
// recycled read buffer once Parse returns.
func oracleParse(r io.Reader) (*Node, error) {
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
