package xmlutil

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// parseEdgeCases walk the corners of what encoding/xml accepts. They seed
// FuzzParse (as literals in a test file) and the mutations of
// TestParseMatchesOracle.
var parseEdgeCases = []string{
	// Namespaces: prefixes go, declarations are dropped, and the local
	// part of a prefixed name must be a name on its own.
	`<p:a xmlns:p="urn:p" p:x="1" y="2"><p:b/><q:c q:d="3"/></p:a>`,
	`<a xmlns="urn:d" xmlns:q="urn:q" q:k="v"><b xmlns=""/><xmlns/></a>`,
	`<a xmlns:p=""><p:b p:c="1"/></a>`,
	`<a xmlns:p=""><p:0/></a>`,
	`<a xmlns:p="xmlns" p:x="dropped" x="kept"/>`,
	`<a p:xmlns="dropped" xmlns:xmlns="x" xmlns:="kept" :xmlns="kept"/>`,
	`<xml:a xml:lang="en" xmlns:xml="" xml:0="1"/>`,
	`<a:b:c/>`, `<:a :b="1"/>`, `<a: b:="1"/>`, `<a b:c:d="1"/>`,
	`<p:0/>`, `<p:-a/>`, `<p:.a/>`, `<p:_a/>`, `<xmlns:0/>`, `<a xmlns:0="x"/>`,
	`<p:é/>`, `<p:·a/>`, `<é:a/>`, `<a p:·="1"/>`, `<a p:0="1"/>`, `<ab·/>`, `<·a/>`,
	`<a x="1" x="2" p:x="3" y="4"/>`,
	// Structure.
	`<a></b>`, `<a:b></a:c>`, `<a:b></c:b>`, `<a:b></b>`, `<a:b></a:b >`, `</a>`, `<a/></a>`,
	`<a><b></a></b>`, `<a/><b/>`, `text<a/>text`, ``, "  \n ", `<a>`, `<a`, `<a x`, `<a x=`,
	`<a x="1`, `<a x='1'/>`, `<a x="1"y="2"/>`, `<a x = "1" />`, `<a/ >`, `< a/>`, `<a></ a>`,
	`<a x=1/>`, `<a x/>`, `<a =""/>`, `<>`, `<a></a`, `<a><`, `<a><//a>`, `<a.b-c_d:e/>`, `<0/>`,
	// References.
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`, `<a>&#65;&#x42;&#x00043;&#0000068;</a>`,
	`<a>&#xD800;</a>`, `<a>&#0;</a>`, `<a>&#x110000;</a>`, `<a>&#99999999999999999999999;</a>`,
	`<a>&#X41;</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&nbsp;</a>`, `<a>&amp</a>`, `<a>&</a>`,
	`<a>&lt</a>`, `<a>&#65</a>`, `<a>&#x1F600;&#xFFFE;</a>`, `<a>&#xFFFD;&#x10FFFF;&#9;</a>`,
	`<a x="&lt;&#10;&#13;&#9;&quot;&apos;"/>`, `<a x="<"/>`, `<a x="&#1;"/>`, `<a x='"' y="'"/>`,
	// CDATA.
	`<a><![CDATA[<b>&amp;]]></a>`, `<a>x<![CDATA[]]>y</a>`, `<a><![CDATA[ ]]> t </a>`,
	`<a><![cdata[x]]></a>`, `<a><![CDATA[x</a>`, `<a>]]></a>`, `<a x="]]>"/>`, `<a>]]&gt;</a>`,
	`<a>]&#93;></a>`, `<a>]]]]></a>`, `<a><![CDATA[]]]]></a>`, `<![CDATA[x]]><a/>`, `<a><![CDATA`,
	// Comments, processing instructions and directives.
	`<!-- c --><a><!-- in --></a><!---->`, `<a><!-- a -- b --></a>`, `<a><!--- --></a>`,
	`<a><!- x --></a>`, `<a><!----></a>`, `<a><!--->--></a>`, `<a><!--`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`, `<?xml version="1.1"?><a/>`,
	`<?xml version='1.0' encoding='ISO-8859-1'?><a/>`, `<?xml encoding="utf-8"?><a/>`,
	`<?xml-stylesheet href="x"?><a/>`, `<?pi?><a><?pi data ? > ?></a>`, `<? x?><a/>`,
	`<?xml?><a/>`, `<?xml encoding=utf-16 encoding="latin1"?><a/>`, `<?xml version=""?><a/>`,
	`<?0?><a/>`, `<?a:b:c?><a/>`, `<a><?pi`, `<?é?><a/>`,
	`<!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!-- > --> <!ATTLIST a x CDATA "'>">]><a/>`,
	`<!DOCTYPE a><a/>`, `<!><a/>`, `<!a<>><a/>`, `<!x '>'><a/>`, `<!"><a/>`, `<!x <!-- -- -->><a/>`,
	`<!x <!- >><a/>`, `<!x <<!-->--> >><a/>`, `<a><!x></a>`, `<!`, `<!x`,
	// CR and CRLF become LF, except where a reference wrote them.
	"<a x=\"1\r\n2\r3\n\">l1\r\nl2\rl3<![CDATA[\r\n]]>\r&#13;\n</a>",
	"<a\r\nx\r=\r'1'\r/>", "<a>\r</a>", "<a>x\r\r\ny</a>",
	// Invalid UTF-8 and illegal characters.
	"<a>\xff</a>", "<a x=\"\xc3\"/>", "<a>\x01</a>", "<a>\x7f\u0085\u00a0</a>", "<\xc3\xa9/>",
	"<a\xff/>", "<a>\uFFFE</a>", "<a>\xed\xa0\x80</a>", "<!-- \xff --><a/>", "<a>\x00</a>",
	"\xff<a/>", "<a/>\x0b", "<a x=\"\t\n\"/>", "<?x \xff?><a/>", "<!x \xff><a/>",
	// Mixed content is concatenated, then trimmed.
	"<a>  one <b/> two <c/>\n</a>", "<a>\n  <b>x</b>\n  <b> y </b>\n</a>",
	"<a> <![CDATA[ x ]]> <b/> &#32; </a>", "<a>&#x85;x&#xA0;</a>", "<a>x<b/>&#32;<c/>y</a>",
	"<a>x<!-- c -->y<?p?>z</a>", "<a><b/>x<c/>\u00a0<d/>y\u2028</a>", "\ufeff<a/>",
	"<a/>\n<!-- trailing -->\n", "<a>x<b>y<c>z</c>w</b>v</a>",
}

// differFromOracle describes how Parse and oracleParse disagree on doc,
// or returns "". Parse may refuse two kinds of document the oracle takes:
// one nested deeper than its bound, and one whose tree the oracle cannot
// read back. The oracle checks a prefixed name's local part only when the
// prefix is bound to a non-empty namespace, so it takes
// <a xmlns:p=""><p:0/></a> and builds <a><0/></a>.
func differFromOracle(doc string) string {
	want, werr := oracleParse(hideByteReader(doc))
	got, gerr := Parse(hideByteReader(doc))
	switch {
	case errors.Is(gerr, errDepth):
		return ""
	case werr == nil && gerr != nil:
		if _, err := oracleParse(strings.NewReader(want.String())); err == nil {
			return fmt.Sprintf("oracle accepts, Parse error %v", gerr)
		}
	case (werr == nil) != (gerr == nil):
		return fmt.Sprintf("oracle error %v, Parse error %v", werr, gerr)
	case werr == nil && got.String() != want.String():
		return fmt.Sprintf("trees differ:\n  oracle %q\n   Parse %q", want.String(), got.String())
	}
	return ""
}

// mutationBytes are what mutate inserts: markup, reference and white
// space bytes, and bytes the character checks refuse.
var mutationBytes = []byte("<>/&;#x\"'=:!-[]? \r\n\t\x00\x01\xff\xc3\xa9a0")

// mutate returns doc with one to three random byte-level edits: delete,
// insert, replace, duplicate a run, or truncate.
func mutate(r *rand.Rand, doc string) string {
	b := []byte(doc)
	for k := 1 + r.Intn(3); k > 0; k-- {
		if len(b) == 0 {
			b = append(b, mutationBytes[r.Intn(len(mutationBytes))])
			continue
		}
		i := r.Intn(len(b))
		switch r.Intn(5) {
		case 0:
			b = append(b[:i], b[i+1:]...)
		case 1:
			b = append(b[:i], append([]byte{mutationBytes[r.Intn(len(mutationBytes))]}, b[i:]...)...)
		case 2:
			b[i] = mutationBytes[r.Intn(len(mutationBytes))]
		case 3:
			j := i + r.Intn(min(8, len(b)-i)) + 1
			b = append(b[:j], append(append([]byte{}, b[i:j]...), b[j:]...)...)
		case 4:
			b = b[:i]
		}
	}
	return string(b)
}

// Property: on encodings of hostile random trees, on every XML literal the
// fuzz target is seeded with, and on byte-level mutations of those
// literals, Parse and oracleParse agree on accept/reject and, where they
// accept, on the tree's String.
func TestParseMatchesOracle(t *testing.T) {
	check := func(what, doc string) {
		t.Helper()
		if d := differFromOracle(doc); d != "" {
			t.Fatalf("%s %q: %s", what, doc, d)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			n := randomTree(r, 0)
			check(fmt.Sprintf("seed %d tree %d", seed, i), n.String())
			check(fmt.Sprintf("seed %d tree %d indented", seed, i), n.Indent())
		}
	}
	var seeds []string
	for _, pattern := range []string{"*_test.go", "../deployfile/*_test.go", "../transport/*_test.go", "../../cost_test.go"} {
		seeds = append(seeds, xmlLiterals(t, pattern)...)
	}
	seeds = append(seeds, envelopeSeeds...)
	r := rand.New(rand.NewSource(1))
	for i, doc := range seeds {
		check(fmt.Sprintf("seed %d", i), doc)
		for k := 0; k < 30; k++ {
			check(fmt.Sprintf("seed %d mutant %d", i, k), mutate(r, doc))
		}
	}
}

// A document nested deeper than 10 000 elements is refused quickly and
// without recursion; one nested exactly that deep still parses.
func TestParseRejectsDeepNesting(t *testing.T) {
	const hostile = 1000000
	doc := strings.Repeat("<a>", hostile) + strings.Repeat("</a>", hostile)
	start := time.Now()
	_, err := ParseString(doc)
	took := time.Since(start)
	if !errors.Is(err, errDepth) {
		t.Fatalf("%d levels: err = %v, want the nesting bound", hostile, err)
	}
	if took > 50*time.Millisecond && !raceDetector {
		t.Errorf("%d levels refused after %v, want < 50ms", hostile, took)
	}
	doc = strings.Repeat("<a>", maxDepth) + "x" + strings.Repeat("</a>", maxDepth)
	n, err := ParseString(doc)
	if err != nil {
		t.Fatalf("%d levels: %v", maxDepth, err)
	}
	depth := 1
	for ; len(n.Children) == 1; n = n.Children[0] {
		depth++
	}
	if depth != maxDepth || n.Text != "x" {
		t.Fatalf("depth %d, innermost text %q; want %d, %q", depth, n.Text, maxDepth, "x")
	}
}

// Growing one parsed node (a new child, a new attribute) leaves every
// other node of the document as it was, however the parser laid the
// nodes, attribute lists and child lists out in memory.
func TestParsedNodesDoNotShareCapacity(t *testing.T) {
	const doc = `<r a="1" b="2"><x k="v"><y/><y q="1">t</y></x><x/><z m="1" n="2"><w/></z>tail</r>`
	nodesOf := func() []*Node {
		var nodes []*Node
		MustParse(doc).Walk(func(n *Node) bool { nodes = append(nodes, n); return true })
		return nodes
	}
	for i := range nodesOf() {
		nodes := nodesOf()
		before := make([]string, len(nodes))
		for j, n := range nodes {
			before[j] = n.String()
		}
		nodes[i].Elem("grown")
		nodes[i].SetAttr("added", "yes")
		for j, n := range nodes {
			if contains(n, nodes[i]) {
				continue // node i and its ancestors show the growth
			}
			if got := n.String(); got != before[j] {
				t.Fatalf("growing node %d (%s) changed node %d:\n before %s\n  after %s", i, nodes[i].Name, j, before[j], got)
			}
		}
	}
}

// contains reports whether target is n or one of its descendants.
func contains(n, target *Node) bool {
	found := false
	n.Walk(func(d *Node) bool {
		found = found || d == target
		return !found
	})
	return found
}
