package xmlutil

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// maxDepth bounds element nesting, as encoding/xml bounds Unmarshal. The
// transport parses every envelope before admission control, so a hostile
// body must not cost more than a bounded stack of open elements.
const maxDepth = 10000

// maxPooled is the largest input buffer an xmlParser takes back to the pool.
// Every other scratch slice grows with the documents that buffer held, so
// one large Query answer cannot pin memory in the pool.
const maxPooled = 64 << 10

// errDepth is wrapped by the error for a document nested deeper than
// maxDepth elements.
var errDepth = errors.New("nesting deeper than 10000 elements")

var xmlParsers = sync.Pool{New: func() any { return new(xmlParser) }}

// Parse reads one XML document (or fragment with a single root) into a tree.
// It accepts what encoding/xml's Decoder.Token accepts, except documents
// nested deeper than 10 000 elements. The tree holds the local names of
// elements and attributes (namespace declarations are dropped) and each
// element's character data, concatenated and trimmed of surrounding white
// space. Names are interned; every value in the tree is cut from one copy
// of the document's values, so a tree retains nothing of r or of the
// pooled read buffer once Parse returns, and a value kept alive keeps
// that copy alive.
func Parse(r io.Reader) (*Node, error) {
	p := xmlParsers.Get().(*xmlParser)
	defer p.release()
	p.buf.Reset()
	if _, err := p.buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("xmlutil: parse: %w", err)
	}
	return p.parse(p.buf.Bytes())
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

// span is the byte range [off, end) of the input or of the arena.
type span struct{ off, end int }

// qname is a qualified name in the input. colon is the offset of the
// prefix separator within the name, or -1 when the name has no prefix
// (no colon, or a colon at either end, which encoding/xml keeps as part
// of the local name).
type qname struct {
	span
	colon int
}

// elem is one element of the tree being built, in document order.
type elem struct {
	name   string // local name, interned
	text   span   // trimmed character data, in the arena
	parent int
	attrs  span // range of xmlParser.attrs
	kids   int  // number of children
}

type attr struct {
	name  string // local name, interned
	value span   // in the arena
}

// open is an element whose end tag has not been read yet.
type open struct {
	elem     int
	raw      qname // to match the end tag against
	segs     int   // len(xmlParser.segs) when the element opened
	ns       int   // len(xmlParser.ns) when the element opened
	nonBlank int   // pieces of character data that are not all white space
}

// segment is one piece of an open element's character data: a text run
// or a CDATA section's content, in the input.
type segment struct {
	raw   span
	cdata bool
}

// binding is a namespace declaration xmlns:prefix="..." in scope. The
// tree keeps no namespaces; all it needs to know is whether the prefix
// names the "xmlns" namespace, whose attributes it drops.
type binding struct {
	prefix span // in the input
	xmlns  bool
}

type tagAttr struct {
	name  qname
	value span // decoded, in the arena
}

// xmlParser is the scratch state of one Parse; xmlParsers are pooled.
type xmlParser struct {
	buf   bytes.Buffer
	in    []byte
	pos   int
	arena []byte // every value of the tree, copied out once
	elems []elem
	attrs []attr
	stack []open
	segs  []segment // character data of the open elements, innermost last
	ns    []binding // prefix bindings in scope, innermost last
	tag   []tagAttr // attributes of the start tag being read
	nodes []*Node   // the tree's nodes, by elems index, while building
}

func (p *xmlParser) release() {
	if p.buf.Cap() > maxPooled {
		return
	}
	clear(p.nodes) // they belong to a returned tree
	p.in, p.nodes = nil, p.nodes[:0]
	p.arena, p.elems, p.attrs = p.arena[:0], p.elems[:0], p.attrs[:0]
	p.stack, p.segs, p.ns, p.tag = p.stack[:0], p.segs[:0], p.ns[:0], p.tag[:0]
	xmlParsers.Put(p)
}

func (p *xmlParser) parse(in []byte) (*Node, error) {
	p.in, p.pos = in, 0
	for p.pos < len(in) {
		var err error
		switch {
		case in[p.pos] != '<':
			err = p.text()
		case p.pos+1 == len(in):
			err = p.eof()
		case in[p.pos+1] == '/':
			err = p.endTag()
		case in[p.pos+1] == '?':
			err = p.procInst()
		case in[p.pos+1] == '!':
			err = p.bang()
		default:
			err = p.startTag()
		}
		if err != nil {
			return nil, err
		}
	}
	if len(p.elems) == 0 {
		return nil, errors.New("xmlutil: empty document")
	}
	if len(p.stack) > 0 {
		return nil, p.eof()
	}
	return p.build(), nil
}

func (p *xmlParser) errorf(format string, args ...any) error {
	line := 1 + bytes.Count(p.in[:p.pos], []byte{'\n'})
	return fmt.Errorf("xmlutil: parse: line %d: "+format, append([]any{line}, args...)...)
}

func (p *xmlParser) eof() error {
	p.pos = len(p.in)
	return p.errorf("unexpected EOF")
}

// space skips the white space encoding/xml skips inside markup.
func (p *xmlParser) space() {
	for p.pos < len(p.in) {
		switch p.in[p.pos] {
		case ' ', '\r', '\n', '\t':
			p.pos++
		default:
			return
		}
	}
}

// name reads a run of name bytes (ASCII name characters and every byte
// past ASCII) and checks it is an XML name.
func (p *xmlParser) name(what string) (span, error) {
	s := span{p.pos, p.pos}
	for s.end < len(p.in) && nameByte[p.in[s.end]] {
		s.end++
	}
	p.pos = s.end
	switch {
	case s.off == s.end && p.pos == len(p.in):
		return s, p.eof()
	case s.off == s.end:
		return s, p.errorf("expected %s", what)
	case !isName(p.in[s.off:s.end]):
		return s, p.errorf("invalid XML name: %s", p.in[s.off:s.end])
	}
	return s, nil
}

// qname reads a name with at most one colon.
func (p *xmlParser) qname(what string) (qname, error) {
	s, err := p.name(what)
	if err != nil {
		return qname{}, err
	}
	raw := p.in[s.off:s.end]
	colon := bytes.IndexByte(raw, ':')
	if colon >= 0 && bytes.IndexByte(raw[colon+1:], ':') >= 0 {
		return qname{}, p.errorf("expected %s", what)
	}
	if colon == 0 || colon == len(raw)-1 {
		colon = -1
	}
	return qname{s, colon}, nil
}

func (p *xmlParser) prefix(q qname) []byte { return p.in[q.off : q.off+q.colon] }

func (p *xmlParser) local(q qname) []byte { return p.in[q.off+q.colon+1 : q.end] }

// text reads a run of character data up to the next '<'.
func (p *xmlParser) text() error {
	raw := span{p.pos, len(p.in)}
	if i := bytes.IndexByte(p.in[p.pos:], '<'); i >= 0 {
		raw.end = p.pos + i
	}
	p.pos = raw.end
	if bytes.Contains(p.in[raw.off:raw.end], []byte("]]>")) {
		return p.errorf("unescaped ]]> not in CDATA section")
	}
	return p.charData(raw, false)
}

// charData adds one piece of character data to the innermost open
// element; outside the root it is checked and dropped.
func (p *xmlParser) charData(raw span, cdata bool) error {
	at := len(p.arena)
	var err error
	if p.arena, err = p.decode(p.arena, p.in[raw.off:raw.end], !cdata); err != nil {
		return err
	}
	if len(p.stack) == 0 {
		p.arena = p.arena[:at]
		return nil
	}
	top := &p.stack[len(p.stack)-1]
	text := p.trim(at)
	switch {
	case text.off == text.end:
		// White space counts only between two pieces that are not.
		if top.nonBlank > 0 {
			p.segs = append(p.segs, segment{raw, cdata})
		}
		return nil
	case top.nonBlank == 0:
		p.elems[top.elem].text = text
	default:
		p.arena = p.arena[:at] // joined when the element closes
	}
	top.nonBlank++
	p.segs = append(p.segs, segment{raw, cdata})
	return nil
}

// trim strips the white space strings.TrimSpace strips off arena[at:],
// in place, and returns what is left.
func (p *xmlParser) trim(at int) span {
	n := copy(p.arena[at:], bytes.TrimSpace(p.arena[at:]))
	p.arena = p.arena[:at+n]
	return span{at, at + n}
}

// decode appends character data to dst as encoding/xml reads it: CR and
// CRLF become LF, and with refs the five predefined entities and character
// references are expanded and '<' is refused (an attribute value; a text
// run never holds one). Every character must be legal XML.
func (p *xmlParser) decode(dst, s []byte, refs bool) ([]byte, error) {
	plain := &plainCDATA
	if refs {
		plain = &plainText
	}
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && plain[s[j]] {
			j++
		}
		dst = append(dst, s[i:j]...)
		if i = j; i == len(s) {
			break
		}
		switch c := s[i]; {
		case c == '\r':
			dst = append(dst, '\n')
			if i++; i < len(s) && s[i] == '\n' {
				i++
			}
		case c == '&' && refs:
			r, n := charRef(s[i:])
			if n == 0 {
				return dst, p.errorf("invalid character entity %.12q", s[i:])
			}
			if !utf8.ValidRune(r) {
				r = utf8.RuneError // a surrogate, as string(rune(n)) has it
			}
			if !inCharRange(r) {
				return dst, p.errorf("illegal character code %U", r)
			}
			dst = utf8.AppendRune(dst, r)
			i += n
		case c == '<':
			return dst, p.errorf("unescaped < inside quoted string")
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && n == 1 {
				return dst, p.errorf("invalid UTF-8")
			}
			if !inCharRange(r) {
				return dst, p.errorf("illegal character code %U", r)
			}
			dst = append(dst, s[i:i+n]...)
			i += n
		default:
			return dst, p.errorf("illegal character code %U", rune(c))
		}
	}
	return dst, nil
}

// charRef reads the entity or character reference s starts with and
// returns its rune and length, or a length of 0 when encoding/xml (strict,
// with no entity map) would refuse it.
func charRef(s []byte) (rune, int) {
	if len(s) > 1 && s[1] == '#' {
		i, base := 2, rune(10)
		if i < len(s) && s[i] == 'x' {
			i, base = 3, 16
		}
		start, r := i, rune(0)
		for ; i < len(s); i++ {
			d := hexDigit(s[i])
			if d >= base {
				break
			}
			if r <= unicode.MaxRune {
				r = r*base + d
			}
		}
		if i == start || i == len(s) || s[i] != ';' || r > unicode.MaxRune {
			return 0, 0
		}
		return r, i + 1
	}
	for _, e := range predefined {
		if len(s) > len(e.name) && string(s[1:1+len(e.name)]) == e.name {
			return e.r, 1 + len(e.name)
		}
	}
	return 0, 0
}

var predefined = [...]struct {
	name string
	r    rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

func hexDigit(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// inCharRange is XML's Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// plainText marks the bytes decode copies as they are outside CDATA:
// printable ASCII other than '&' and '<', tab and LF. plainCDATA adds
// '&' and '<'.
var plainText, plainCDATA = func() (t, c [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '&' && b != '<'
		c[b] = true
	}
	t['\t'], t['\n'], c['\t'], c['\n'] = true, true, true, true
	return t, c
}()

// nameByte marks the bytes encoding/xml reads into a name: ASCII letters,
// digits, '_', ':', '.', '-', and every byte past ASCII.
var nameByte = func() (t [256]bool) {
	for b := range t {
		t[b] = b >= utf8.RuneSelf || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' ||
			'0' <= b && b <= '9' || b == '_' || b == ':' || b == '.' || b == '-'
	}
	return t
}()

// isName reports whether a run of name bytes is an XML name. In ASCII
// only the first character can be wrong; past ASCII, encoding/xml keeps
// its character tables to itself, so it decides.
func isName(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			_, err := xml.NewDecoder(bytes.NewReader(slices.Concat([]byte("<?"), b, []byte("?>")))).RawToken()
			return err == nil
		}
	}
	c := b[0]
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c == ':'
}

// startTag reads <name attr="value" ...> or <name .../>.
func (p *xmlParser) startTag() error {
	p.pos++
	name, err := p.qname("element name after <")
	if err != nil {
		return err
	}
	p.tag = p.tag[:0]
	for {
		p.space()
		if p.pos == len(p.in) {
			return p.eof()
		}
		switch p.in[p.pos] {
		case '/':
			if p.pos++; p.pos == len(p.in) || p.in[p.pos] != '>' {
				return p.errorf("expected /> in element")
			}
			p.pos++
			return p.element(name, true)
		case '>':
			p.pos++
			return p.element(name, false)
		}
		a := tagAttr{}
		if a.name, err = p.qname("attribute name in element"); err != nil {
			return err
		}
		p.space()
		if p.pos == len(p.in) || p.in[p.pos] != '=' {
			return p.errorf("attribute name without = in element")
		}
		p.pos++
		p.space()
		if p.pos == len(p.in) || p.in[p.pos] != '"' && p.in[p.pos] != '\'' {
			return p.errorf("unquoted or missing attribute value in element")
		}
		quote := p.in[p.pos]
		p.pos++
		end := bytes.IndexByte(p.in[p.pos:], quote)
		if end < 0 {
			return p.eof()
		}
		at := len(p.arena)
		if p.arena, err = p.decode(p.arena, p.in[p.pos:p.pos+end], true); err != nil {
			return err
		}
		p.pos += end + 1
		a.value = span{at, len(p.arena)}
		p.tag = append(p.tag, a)
	}
}

// element opens the element whose start tag was just read: it applies
// the tag's namespace declarations, keeps the attributes the tree keeps,
// and closes the element again when the tag was empty.
func (p *xmlParser) element(name qname, empty bool) error {
	nsBase := len(p.ns)
	for _, a := range p.tag {
		if a.name.colon >= 0 && string(p.prefix(a.name)) == "xmlns" {
			xmlns := string(p.arena[a.value.off:a.value.end]) == "xmlns"
			p.ns = append(p.ns, binding{span{a.name.off + a.name.colon + 1, a.name.end}, xmlns})
		}
	}
	if !p.localOK(name) {
		return p.errorf("element %s: local part is not a name", p.in[name.off:name.end])
	}
	if len(p.stack) == 0 && len(p.elems) > 0 {
		return errors.New("xmlutil: multiple root elements")
	}
	if len(p.stack) == maxDepth {
		return p.errorf("%w", errDepth)
	}
	e := elem{name: internName(p.local(name)), parent: -1, attrs: span{len(p.attrs), len(p.attrs)}}
	if len(p.stack) > 0 {
		e.parent = p.stack[len(p.stack)-1].elem
		p.elems[e.parent].kids++
	}
	for _, a := range p.tag {
		if p.dropped(a.name) {
			continue
		}
		if !p.localOK(a.name) {
			return p.errorf("attribute %s: local part is not a name", p.in[a.name.off:a.name.end])
		}
		p.setAttr(&e, p.local(a.name), a.value)
	}
	p.elems = append(p.elems, e)
	p.stack = append(p.stack, open{elem: len(p.elems) - 1, raw: name, segs: len(p.segs), ns: nsBase})
	if empty {
		p.close()
	}
	return nil
}

// setAttr adds an attribute to e, or, like Node.SetAttr, replaces the
// value of the one with the same local name.
func (p *xmlParser) setAttr(e *elem, local []byte, value span) {
	for i := e.attrs.off; i < len(p.attrs); i++ {
		if p.attrs[i].name == string(local) {
			p.attrs[i].value = value
			return
		}
	}
	p.attrs = append(p.attrs, attr{internName(local), value})
	e.attrs.end = len(p.attrs)
}

// localOK applies the tree's rule for prefixed names: it keeps only the
// local part, so <p:0/> (a name, but one whose local part starts with a
// digit) would encode as the malformed <0/>.
func (p *xmlParser) localOK(q qname) bool {
	return q.colon < 0 || isName(p.local(q))
}

// dropped reports whether an attribute is a namespace declaration or is
// in the "xmlns" namespace, which the tree leaves out.
func (p *xmlParser) dropped(q qname) bool {
	if string(p.local(q)) == "xmlns" {
		return true
	}
	if q.colon < 0 {
		return false
	}
	prefix := string(p.prefix(q))
	switch prefix {
	case "xmlns":
		return true
	case "xml":
		return false
	}
	for i := len(p.ns) - 1; i >= 0; i-- {
		if b := p.ns[i]; string(p.in[b.prefix.off:b.prefix.end]) == prefix {
			return b.xmlns
		}
	}
	return false
}

// names interns element and attribute names across documents. GLARE's
// documents use a few dozen names, so a parsed tree's names are shared
// strings and the tree's own string holds only values: a document a
// registry keeps from a request does not keep the envelope's names. A
// slot holds the last name hashed to it; a miss costs two allocations,
// as a name used to cost one.
var names [4096]atomic.Pointer[string]

func internName(b []byte) string {
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &names[h%uint32(len(names))]
	if s := slot.Load(); s != nil && *s == string(b) {
		return *s
	}
	s := string(b)
	slot.Store(&s)
	return s
}

// endTag reads </name> and closes the innermost open element.
func (p *xmlParser) endTag() error {
	p.pos += 2
	name, err := p.qname("element name after </")
	if err != nil {
		return err
	}
	p.space()
	if p.pos == len(p.in) {
		return p.eof()
	}
	if p.in[p.pos] != '>' {
		return p.errorf("invalid characters between </%s and >", p.in[name.off:name.end])
	}
	p.pos++
	if len(p.stack) == 0 {
		return p.errorf("unexpected end element </%s>", p.in[name.off:name.end])
	}
	if top := p.stack[len(p.stack)-1].raw; string(p.in[top.off:top.end]) != string(p.in[name.off:name.end]) {
		return p.errorf("element <%s> closed by </%s>", p.in[top.off:top.end], p.in[name.off:name.end])
	}
	p.close()
	return nil
}

// close pops the innermost open element. When its character data came in
// more than one piece that is not all white space, it joins the pieces
// (and the white space between them) at the end of the arena.
func (p *xmlParser) close() {
	top := p.stack[len(p.stack)-1]
	if top.nonBlank > 1 {
		at := len(p.arena)
		for _, s := range p.segs[top.segs:] {
			// Every piece decoded once already.
			p.arena, _ = p.decode(p.arena, p.in[s.raw.off:s.raw.end], !s.cdata)
		}
		p.elems[top.elem].text = p.trim(at)
	}
	p.segs = p.segs[:top.segs]
	p.ns = p.ns[:top.ns]
	p.stack = p.stack[:len(p.stack)-1]
}

// procInst reads <?target data?>; an XML declaration must declare
// version 1.0 (or none) and UTF-8 (or no encoding).
func (p *xmlParser) procInst() error {
	p.pos += 2
	target, err := p.name("target name after <?")
	if err != nil {
		return err
	}
	p.space()
	end := bytes.Index(p.in[p.pos:], []byte("?>"))
	if end < 0 {
		return p.eof()
	}
	data := p.in[p.pos : p.pos+end]
	p.pos += end + 2
	if string(p.in[target.off:target.end]) != "xml" {
		return nil
	}
	if v := procInstParam("version", data); len(v) > 0 && string(v) != "1.0" {
		return p.errorf("unsupported version %q; only version 1.0 is supported", v)
	}
	if enc := procInstParam("encoding", data); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
		return p.errorf("encoding %q declared but only UTF-8 is read", enc)
	}
	return nil
}

// procInstParam returns the quoted value of param="..." or param='...' in
// a processing instruction's data, found the way encoding/xml finds it:
// the first occurrence of param= that a quote follows.
func procInstParam(param string, s []byte) []byte {
	key := param + "="
	i := 0
	var quote byte
	for i < len(s) {
		k := bytes.Index(s[i:], []byte(key))
		if k < 0 || i+k+len(key) >= len(s) {
			return nil
		}
		c := s[i+k+len(key)]
		i += k + len(key) + 1
		if c == '\'' || c == '"' {
			quote = c
			break
		}
	}
	if quote == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], quote)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// bang reads a comment, a CDATA section or a directive.
func (p *xmlParser) bang() error {
	p.pos += 2
	rest := p.in[p.pos:]
	switch {
	case len(rest) == 0:
		return p.eof()
	case rest[0] == '-':
		if len(rest) == 1 {
			return p.eof()
		}
		if rest[1] != '-' {
			return p.errorf("invalid sequence <!- not part of <!--")
		}
		// The first "--" must end the comment.
		i := bytes.Index(rest[2:], []byte("--"))
		if i < 0 || 2+i+2 == len(rest) {
			return p.eof()
		}
		p.pos += 2 + i + 2
		if rest[2+i+2] != '>' {
			return p.errorf(`invalid sequence "--" not allowed in comments`)
		}
		p.pos++
		return nil
	case rest[0] == '[':
		if !bytes.HasPrefix(rest, []byte("[CDATA[")) {
			return p.errorf("invalid <![ sequence")
		}
		p.pos += len("[CDATA[")
		i := bytes.Index(p.in[p.pos:], []byte("]]>"))
		if i < 0 {
			return p.eof()
		}
		raw := span{p.pos, p.pos + i}
		p.pos += i + len("]]>")
		return p.charData(raw, true)
	}
	return p.directive()
}

// directive skips <!DOCTYPE ...> and the like the way encoding/xml reads
// them: up to the first '>' outside quotes and outside nested '<' ... '>',
// where "<!--" opens a comment that runs to "-->". The byte after "<!"
// is taken as it is.
func (p *xmlParser) directive() error {
	in, i := p.in, p.pos+1
	var quote byte
	depth := 0
	for {
		if i == len(in) {
			return p.eof()
		}
		b := in[i]
		i++
		if quote == 0 && b == '>' && depth == 0 {
			break
		}
		for again := true; again; {
			again = false
			switch {
			case b == quote:
				quote = 0
			case quote != 0:
			case b == '\'' || b == '"':
				quote = b
			case b == '>':
				depth--
			case b == '<':
				matched := 0
				for matched < len("!--") {
					if i == len(in) {
						return p.eof()
					}
					b = in[i]
					i++
					if b != "!--"[matched] {
						break
					}
					matched++
				}
				if matched < len("!--") {
					// Not a comment: a nested '<', and the byte that
					// broke the match is read again.
					depth++
					again = true
					continue
				}
				end := bytes.Index(in[i:], []byte("-->"))
				if end < 0 {
					return p.eof()
				}
				i += end + len("-->")
			}
		}
	}
	p.pos = i
	return nil
}

// build turns the flat records into the tree. Every value is cut from one
// string. Each node, attribute list and child list is its own
// allocation, of exactly its size: a caller that keeps one subtree (the
// transport hands out the body's first child) keeps only that subtree's
// nodes, and appending to one node's lists cannot write into another's.
func (p *xmlParser) build() *Node {
	s := string(p.arena)
	str := func(sp span) string { return s[sp.off:sp.end] }
	for i := range p.elems {
		e := &p.elems[i]
		n := &Node{Name: e.name, Text: str(e.text)}
		if e.attrs.end > e.attrs.off {
			n.Attrs = make([]Attr, 0, e.attrs.end-e.attrs.off)
			for _, a := range p.attrs[e.attrs.off:e.attrs.end] {
				n.Attrs = append(n.Attrs, Attr{Name: a.name, Value: str(a.value)})
			}
		}
		if e.kids > 0 {
			n.Children = make([]*Node, 0, e.kids)
		}
		if e.parent >= 0 {
			parent := p.nodes[e.parent]
			parent.Children = append(parent.Children, n)
		}
		p.nodes = append(p.nodes, n)
	}
	return p.nodes[0]
}
