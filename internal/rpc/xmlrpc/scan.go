package xmlrpc

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"unicode/utf8"
)

// tokKind is the kind of markup token the scanner returns.
type tokKind uint8

const (
	tokStart tokKind = iota + 1 // start tag: name and local are set
	tokEnd                      // end tag, already matched to its start tag
	tokText                     // character data or a CDATA section: data is set
	tokOther                    // comment, processing instruction or directive
)

// span is a byte range of the scanned document.
type span struct{ lo, hi int }

// tag is the name of an element and its part after any prefix.
type tag struct{ name, local span }

var errEOF = errors.New("xmlrpc: unexpected EOF")

// scanner splits an XML document held in memory into tokens without
// allocating. It holds the document to the rules encoding/xml's strict
// Decoder.Token does:
//   - start and end tags match, comparing the whole name, prefix included;
//     a self-closing tag yields a start and an end token;
//   - character data may hold only the five named entities and &#N; /
//     &#xN; references, must be valid UTF-8 in the XML character range
//     (after entity expansion) and may not contain "]]>"; \r and \r\n
//     become \n;
//   - names follow the XML 1.0 (fourth edition) productions, with at most
//     one colon;
//   - attribute values are quoted and checked like character data;
//   - comments may not contain "--"; an XML declaration may not name a
//     version other than 1.0 or an encoding other than UTF-8.
type scanner struct {
	buf []byte
	pos int

	open       []tag // the open elements, innermost last
	pendingEnd bool  // the last start tag closed itself

	// The current token. name and local (the part after a prefix) index
	// buf. data is valid until the next call to token.
	name, local span
	data        []byte

	scratch []byte // entity-expanded character data backing data
}

func (s *scanner) syntax(format string, args ...any) error {
	return fmt.Errorf("xmlrpc: syntax error at offset %d: "+format, append([]any{s.pos}, args...)...)
}

// localName is the current tag's name without its prefix. It indexes the
// document: copy it before keeping it.
func (s *scanner) localName() []byte { return s.buf[s.local.lo:s.local.hi] }

// is reports whether the current tag's local name is name.
func (s *scanner) is(name string) bool { return string(s.localName()) == name }

func (s *scanner) getc() (byte, error) {
	if s.pos >= len(s.buf) {
		return 0, errEOF
	}
	b := s.buf[s.pos]
	s.pos++
	return b, nil
}

// space skips the whitespace XML allows inside tags.
func (s *scanner) space() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// token scans the next token.
func (s *scanner) token() (tokKind, error) {
	if s.pendingEnd {
		s.pendingEnd = false
		s.open = s.open[:len(s.open)-1]
		return tokEnd, nil
	}
	if s.pos >= len(s.buf) {
		return 0, errEOF
	}
	if s.buf[s.pos] != '<' {
		return tokText, s.charData()
	}
	s.pos++
	b, err := s.getc()
	if err != nil {
		return 0, err
	}
	switch b {
	case '/':
		return tokEnd, s.endTag()
	case '?':
		return tokOther, s.procInst()
	case '!':
		return s.markupDecl()
	}
	s.pos--
	return tokStart, s.startTag()
}

// charData scans text up to the next '<'. Text without references or
// carriage returns is used in place; the rest is expanded into scratch.
func (s *scanner) charData() error {
	start := s.pos
	end := bytes.IndexByte(s.buf[start:], '<')
	if end < 0 {
		end = len(s.buf)
	} else {
		end += start
	}
	run := s.buf[start:end]
	if bytes.IndexByte(run, '&') >= 0 || bytes.IndexByte(run, '\r') >= 0 {
		var err error
		s.data, err = s.expand(-1, false)
		return err
	}
	if bytes.Contains(run, cdataEnd) {
		return s.syntax("unescaped ]]> not in CDATA section")
	}
	if err := s.checkChars(run); err != nil {
		return err
	}
	s.data = run
	s.pos = end
	return nil
}

var (
	cdataEnd   = []byte("]]>")
	commentEnd = []byte("-->")
	piEnd      = []byte("?>")
	dashDash   = []byte("--")
)

// expand reads character data into scratch, resolving references and
// normalizing line ends. quote >= 0 reads an attribute value up to that
// quote; cdata reads a CDATA section up to "]]>"; otherwise it reads text
// up to the next '<'.
func (s *scanner) expand(quote int, cdata bool) ([]byte, error) {
	out := s.scratch[:0]
	var b0, b1 byte
	trunc := 0
	for s.pos < len(s.buf) {
		// Copy a run of plain bytes in one go. After a '\r' the next byte
		// must go through the loop, which drops the '\n' of a "\r\n".
		if !cdata && b1 != '\r' {
			if n := plainLen(s.buf[s.pos:], quote); n > 0 {
				out = append(out, s.buf[s.pos:s.pos+n]...)
				s.pos += n
				b0, b1 = 0, 0
				continue
			}
		}
		b := s.buf[s.pos]
		s.pos++
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				trunc = 2
				break
			}
			return nil, s.syntax("unescaped ]]> not in CDATA section")
		}
		if b == '<' && !cdata {
			if quote >= 0 {
				return nil, s.syntax("unescaped < inside quoted string")
			}
			s.pos--
			break
		}
		if quote >= 0 && b == byte(quote) {
			break
		}
		if b == '&' && !cdata {
			r, err := s.reference()
			if err != nil {
				return nil, err
			}
			out = utf8.AppendRune(out, r) // a surrogate becomes U+FFFD
			b0, b1 = 0, 0
			continue
		}
		switch {
		case b == '\r':
			out = append(out, '\n')
		case b1 == '\r' && b == '\n':
		default:
			out = append(out, b)
		}
		b0, b1 = b1, b
	}
	if cdata && trunc == 0 {
		return nil, errEOF
	}
	out = out[:len(out)-trunc]
	s.scratch = out
	return out, s.checkChars(out)
}

// plainLen returns the length of the leading run of b that expand copies
// unchanged outside CDATA: bytes that are no markup, reference, line end,
// part of "]]>" or the closing quote (quote < 0 matches none).
func plainLen(b []byte, quote int) int {
	for i, c := range b {
		switch c {
		case '<', '&', '\r', ']', '>':
			return i
		}
		if int(c) == quote {
			return i
		}
	}
	return len(b)
}

// reference reads the rest of an entity or character reference after
// its '&'.
func (s *scanner) reference() (rune, error) {
	b, err := s.getc()
	if err != nil {
		return 0, err
	}
	if b != '#' {
		rest := s.buf[s.pos-1:]
		for _, e := range entities {
			if bytes.HasPrefix(rest, e.ref) {
				s.pos += len(e.ref) - 1
				return e.r, nil
			}
		}
		return 0, s.syntax("invalid character entity")
	}
	if b, err = s.getc(); err != nil {
		return 0, err
	}
	base := rune(10)
	if b == 'x' {
		base = 16
		if b, err = s.getc(); err != nil {
			return 0, err
		}
	}
	var n rune
	digits := 0
	for {
		d := rune(-1)
		switch {
		case '0' <= b && b <= '9':
			d = rune(b - '0')
		case base == 16 && 'a' <= b && b <= 'f':
			d = rune(b-'a') + 10
		case base == 16 && 'A' <= b && b <= 'F':
			d = rune(b-'A') + 10
		}
		if d < 0 {
			break
		}
		if n <= utf8.MaxRune {
			n = n*base + d
		}
		digits++
		if b, err = s.getc(); err != nil {
			return 0, err
		}
	}
	if b != ';' || digits == 0 || n > utf8.MaxRune {
		return 0, s.syntax("invalid character reference")
	}
	return n, nil
}

var entities = [...]struct {
	ref []byte
	r   rune
}{
	{[]byte("lt;"), '<'},
	{[]byte("gt;"), '>'},
	{[]byte("amp;"), '&'},
	{[]byte("apos;"), '\''},
	{[]byte("quot;"), '"'},
}

// checkChars rejects invalid UTF-8 and characters outside the XML
// character range.
func (s *scanner) checkChars(b []byte) error {
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return s.syntax("illegal character code %U", rune(c))
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && n == 1 {
			return s.syntax("invalid UTF-8")
		}
		if r == 0xFFFE || r == 0xFFFF {
			return s.syntax("illegal character code %U", r)
		}
		i += n
	}
	return nil
}

// markupDecl scans what follows "<!": a comment, a CDATA section or a
// directive such as <!DOCTYPE ...>.
func (s *scanner) markupDecl() (tokKind, error) {
	b, err := s.getc()
	if err != nil {
		return 0, err
	}
	switch b {
	case '-':
		if b, err = s.getc(); err != nil {
			return 0, err
		}
		if b != '-' {
			return 0, s.syntax("invalid sequence <!- not part of <!--")
		}
		i := bytes.Index(s.buf[s.pos:], dashDash)
		if i < 0 {
			return 0, errEOF
		}
		s.pos += i + 2
		if b, err = s.getc(); err != nil {
			return 0, err
		}
		if b != '>' {
			return 0, s.syntax(`invalid sequence "--" not allowed in comments`)
		}
		return tokOther, nil
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if b, err = s.getc(); err != nil {
				return 0, err
			}
			if b != "CDATA["[i] {
				return 0, s.syntax("invalid <![ sequence")
			}
		}
		s.data, err = s.expand(-1, true)
		return tokText, err
	}
	return tokOther, s.directive()
}

// directive skips the body of a directive up to its closing '>'. Quoted
// '>'s and comments do not close it; each other '<' needs a '>' of its
// own. The first byte after "<!" has been consumed and is not examined.
func (s *scanner) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := s.getc()
		if err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if b, err = s.getc(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			i := bytes.Index(s.buf[s.pos:], commentEnd)
			if i < 0 {
				return errEOF
			}
			s.pos += i + len(commentEnd)
		}
	}
}

// procInst scans a processing instruction after its "<?". Only the XML
// declaration's version and encoding are checked.
func (s *scanner) procInst() error {
	target, err := s.scanName()
	if err != nil {
		return err
	}
	s.space()
	i := bytes.Index(s.buf[s.pos:], piEnd)
	if i < 0 {
		return errEOF
	}
	data := s.buf[s.pos : s.pos+i]
	s.pos += i + len(piEnd)
	if string(s.buf[target.lo:target.hi]) != "xml" {
		return nil
	}
	if v := pseudoAttr(data, versionKey); len(v) > 0 && string(v) != "1.0" {
		return fmt.Errorf("xmlrpc: unsupported XML version %q", v)
	}
	if enc := pseudoAttr(data, encodingKey); len(enc) > 0 && !bytes.EqualFold(enc, utf8Name) {
		return fmt.Errorf("xmlrpc: unsupported encoding %q", enc)
	}
	return nil
}

var (
	versionKey  = []byte("version=")
	encodingKey = []byte("encoding=")
	utf8Name    = []byte("utf-8")
)

// pseudoAttr returns the quoted value following the first key (which ends
// in '=') directly followed by a quote, or nil. It reads the declaration
// as loosely as encoding/xml does.
func pseudoAttr(s, key []byte) []byte {
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, key)
		if k < 0 || len(key)+k >= len(sub) {
			return nil
		}
		i += len(key) + k + 1
		if c := sub[len(key)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// startTag scans a start tag from its name on, checking (and
// discarding) its attributes.
func (s *scanner) startTag() error {
	name, local, err := s.qname()
	if err != nil {
		return err
	}
	for {
		s.space()
		b, err := s.getc()
		if err != nil {
			return err
		}
		if b == '>' {
			break
		}
		if b == '/' {
			if b, err = s.getc(); err != nil {
				return err
			}
			if b != '>' {
				return s.syntax("expected /> in element")
			}
			s.pendingEnd = true
			break
		}
		s.pos--
		if _, _, err := s.qname(); err != nil {
			return err
		}
		s.space()
		if b, err = s.getc(); err != nil {
			return err
		}
		if b != '=' {
			return s.syntax("attribute name without = in element")
		}
		s.space()
		if b, err = s.getc(); err != nil {
			return err
		}
		if b != '"' && b != '\'' {
			return s.syntax("unquoted or missing attribute value in element")
		}
		if _, err := s.expand(int(b), false); err != nil {
			return err
		}
	}
	s.name, s.local = name, local
	s.open = append(s.open, tag{name, local})
	return nil
}

// endTag scans an end tag after its "</" and pops its start tag.
func (s *scanner) endTag() error {
	var name, local span
	var err error
	if n := len(s.open); n > 0 && s.repeats(s.open[n-1].name) {
		// The usual case: the end tag repeats the name of the open
		// start tag, which was checked when it was scanned.
		start := s.open[n-1]
		name = span{s.pos, s.pos + start.name.hi - start.name.lo}
		local = span{s.pos + start.local.lo - start.name.lo, name.hi}
		s.pos = name.hi
	} else if name, local, err = s.qname(); err != nil {
		return err
	}
	s.space()
	b, err := s.getc()
	if err != nil {
		return err
	}
	if b != '>' {
		return s.syntax("invalid characters in end tag")
	}
	if len(s.open) == 0 {
		return s.syntax("unexpected end element </%s>", s.buf[name.lo:name.hi])
	}
	top := s.open[len(s.open)-1].name
	if !bytes.Equal(s.buf[top.lo:top.hi], s.buf[name.lo:name.hi]) {
		return s.syntax("element <%s> closed by </%s>", s.buf[top.lo:top.hi], s.buf[name.lo:name.hi])
	}
	s.open = s.open[:len(s.open)-1]
	s.name, s.local = name, local
	return nil
}

// repeats reports whether the document continues with the name n and
// then a byte that cannot continue a name.
func (s *scanner) repeats(n span) bool {
	end := s.pos + n.hi - n.lo
	return end < len(s.buf) && !nameBytes[s.buf[end]] && bytes.Equal(s.buf[s.pos:end], s.buf[n.lo:n.hi])
}

// qname scans an element or attribute name, which may carry one prefix.
func (s *scanner) qname() (name, local span, err error) {
	if name, err = s.scanName(); err != nil {
		return name, name, err
	}
	local, ok := localPart(s.buf, name)
	if !ok {
		return name, local, s.syntax("expected a name with at most one colon")
	}
	return name, local, nil
}

// localPart splits the prefix off a name the way encoding/xml does: only
// at a colon with a non-empty part on each side. A name with two colons
// is not ok.
func localPart(buf []byte, name span) (local span, ok bool) {
	n := buf[name.lo:name.hi]
	i := bytes.IndexByte(n, ':')
	if i < 0 {
		return name, true
	}
	if bytes.IndexByte(n[i+1:], ':') >= 0 {
		return name, false
	}
	if i > 0 && i < len(n)-1 {
		name.lo += i + 1
	}
	return name, true
}

// scanName scans an XML name.
func (s *scanner) scanName() (span, error) {
	start := s.pos
	wide := false
	for s.pos < len(s.buf) && nameBytes[s.buf[s.pos]] {
		wide = wide || s.buf[s.pos] >= utf8.RuneSelf
		s.pos++
	}
	if s.pos == len(s.buf) {
		return span{}, errEOF
	}
	if s.pos == start {
		return span{}, s.syntax("expected a name")
	}
	n := s.buf[start:s.pos]
	if wide && !isName(n) || !wide && !isNameStart(rune(n[0])) {
		return span{}, s.syntax("invalid XML name %q", n)
	}
	return span{start, s.pos}, nil
}

// nameBytes marks the bytes a name may contain: ASCII name characters
// and every byte of a multi-byte character, which isName checks further.
var nameBytes = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' ||
			'0' <= c && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
	}
	return t
}()

func isName(b []byte) bool {
	for i := 0; i < len(b); {
		r, n := rune(b[i]), 1
		if r >= utf8.RuneSelf {
			if r, n = utf8.DecodeRune(b[i:]); r == utf8.RuneError && n == 1 {
				return false
			}
		}
		if i == 0 && !isNameStart(r) || i > 0 && !isNameChar(r) {
			return false
		}
		i += n
	}
	return len(b) > 0
}

func isNameStart(r rune) bool {
	if r < utf8.RuneSelf {
		return 'A' <= r && r <= 'Z' || 'a' <= r && r <= 'z' || r == '_' || r == ':'
	}
	return inRanges(nameStartRanges[:], r)
}

func isNameChar(r rune) bool {
	if r < utf8.RuneSelf {
		return nameBytes[r]
	}
	return inRanges(nameCharRanges[:], r)
}

// inRanges reports whether r falls in one of the sorted inclusive
// [lo, hi] pairs of t.
func inRanges(t []uint16, r rune) bool {
	if r > 0xFFFF {
		return false
	}
	i := sort.Search(len(t)/2, func(i int) bool { return rune(t[2*i+1]) >= r })
	return i < len(t)/2 && rune(t[2*i]) <= r
}

// The non-ASCII name characters of XML 1.0 (fourth edition) Appendix B,
// the tables encoding/xml checks names against: nameStartRanges is
// Letter, nameCharRanges is Letter | Digit | CombiningChar | Extender.

var nameStartRanges = [...]uint16{
	0x00C0, 0x00D6, 0x00D8, 0x00F6, 0x00F8, 0x0131, 0x0134, 0x013E, 0x0141, 0x0148, 0x014A, 0x017E,
	0x0180, 0x01C3, 0x01CD, 0x01F0, 0x01F4, 0x01F5, 0x01FA, 0x0217, 0x0250, 0x02A8, 0x02BB, 0x02C1,
	0x0386, 0x0386, 0x0388, 0x038A, 0x038C, 0x038C, 0x038E, 0x03A1, 0x03A3, 0x03CE, 0x03D0, 0x03D6,
	0x03DA, 0x03DA, 0x03DC, 0x03DC, 0x03DE, 0x03DE, 0x03E0, 0x03E0, 0x03E2, 0x03F3, 0x0401, 0x040C,
	0x040E, 0x044F, 0x0451, 0x045C, 0x045E, 0x0481, 0x0490, 0x04C4, 0x04C7, 0x04C8, 0x04CB, 0x04CC,
	0x04D0, 0x04EB, 0x04EE, 0x04F5, 0x04F8, 0x04F9, 0x0531, 0x0556, 0x0559, 0x0559, 0x0561, 0x0586,
	0x05D0, 0x05EA, 0x05F0, 0x05F2, 0x0621, 0x063A, 0x0641, 0x064A, 0x0671, 0x06B7, 0x06BA, 0x06BE,
	0x06C0, 0x06CE, 0x06D0, 0x06D3, 0x06D5, 0x06D5, 0x06E5, 0x06E6, 0x0905, 0x0939, 0x093D, 0x093D,
	0x0958, 0x0961, 0x0985, 0x098C, 0x098F, 0x0990, 0x0993, 0x09A8, 0x09AA, 0x09B0, 0x09B2, 0x09B2,
	0x09B6, 0x09B9, 0x09DC, 0x09DD, 0x09DF, 0x09E1, 0x09F0, 0x09F1, 0x0A05, 0x0A0A, 0x0A0F, 0x0A10,
	0x0A13, 0x0A28, 0x0A2A, 0x0A30, 0x0A32, 0x0A33, 0x0A35, 0x0A36, 0x0A38, 0x0A39, 0x0A59, 0x0A5C,
	0x0A5E, 0x0A5E, 0x0A72, 0x0A74, 0x0A85, 0x0A8B, 0x0A8D, 0x0A8D, 0x0A8F, 0x0A91, 0x0A93, 0x0AA8,
	0x0AAA, 0x0AB0, 0x0AB2, 0x0AB3, 0x0AB5, 0x0AB9, 0x0ABD, 0x0ABD, 0x0AE0, 0x0AE0, 0x0B05, 0x0B0C,
	0x0B0F, 0x0B10, 0x0B13, 0x0B28, 0x0B2A, 0x0B30, 0x0B32, 0x0B33, 0x0B36, 0x0B39, 0x0B3D, 0x0B3D,
	0x0B5C, 0x0B5D, 0x0B5F, 0x0B61, 0x0B85, 0x0B8A, 0x0B8E, 0x0B90, 0x0B92, 0x0B95, 0x0B99, 0x0B9A,
	0x0B9C, 0x0B9C, 0x0B9E, 0x0B9F, 0x0BA3, 0x0BA4, 0x0BA8, 0x0BAA, 0x0BAE, 0x0BB5, 0x0BB7, 0x0BB9,
	0x0C05, 0x0C0C, 0x0C0E, 0x0C10, 0x0C12, 0x0C28, 0x0C2A, 0x0C33, 0x0C35, 0x0C39, 0x0C60, 0x0C61,
	0x0C85, 0x0C8C, 0x0C8E, 0x0C90, 0x0C92, 0x0CA8, 0x0CAA, 0x0CB3, 0x0CB5, 0x0CB9, 0x0CDE, 0x0CDE,
	0x0CE0, 0x0CE1, 0x0D05, 0x0D0C, 0x0D0E, 0x0D10, 0x0D12, 0x0D28, 0x0D2A, 0x0D39, 0x0D60, 0x0D61,
	0x0E01, 0x0E2E, 0x0E30, 0x0E30, 0x0E32, 0x0E33, 0x0E40, 0x0E45, 0x0E81, 0x0E82, 0x0E84, 0x0E84,
	0x0E87, 0x0E88, 0x0E8A, 0x0E8A, 0x0E8D, 0x0E8D, 0x0E94, 0x0E97, 0x0E99, 0x0E9F, 0x0EA1, 0x0EA3,
	0x0EA5, 0x0EA5, 0x0EA7, 0x0EA7, 0x0EAA, 0x0EAB, 0x0EAD, 0x0EAE, 0x0EB0, 0x0EB0, 0x0EB2, 0x0EB3,
	0x0EBD, 0x0EBD, 0x0EC0, 0x0EC4, 0x0F40, 0x0F47, 0x0F49, 0x0F69, 0x10A0, 0x10C5, 0x10D0, 0x10F6,
	0x1100, 0x1100, 0x1102, 0x1103, 0x1105, 0x1107, 0x1109, 0x1109, 0x110B, 0x110C, 0x110E, 0x1112,
	0x113C, 0x113C, 0x113E, 0x113E, 0x1140, 0x1140, 0x114C, 0x114C, 0x114E, 0x114E, 0x1150, 0x1150,
	0x1154, 0x1155, 0x1159, 0x1159, 0x115F, 0x1161, 0x1163, 0x1163, 0x1165, 0x1165, 0x1167, 0x1167,
	0x1169, 0x1169, 0x116D, 0x116E, 0x1172, 0x1173, 0x1175, 0x1175, 0x119E, 0x119E, 0x11A8, 0x11A8,
	0x11AB, 0x11AB, 0x11AE, 0x11AF, 0x11B7, 0x11B8, 0x11BA, 0x11BA, 0x11BC, 0x11C2, 0x11EB, 0x11EB,
	0x11F0, 0x11F0, 0x11F9, 0x11F9, 0x1E00, 0x1E9B, 0x1EA0, 0x1EF9, 0x1F00, 0x1F15, 0x1F18, 0x1F1D,
	0x1F20, 0x1F45, 0x1F48, 0x1F4D, 0x1F50, 0x1F57, 0x1F59, 0x1F59, 0x1F5B, 0x1F5B, 0x1F5D, 0x1F5D,
	0x1F5F, 0x1F7D, 0x1F80, 0x1FB4, 0x1FB6, 0x1FBC, 0x1FBE, 0x1FBE, 0x1FC2, 0x1FC4, 0x1FC6, 0x1FCC,
	0x1FD0, 0x1FD3, 0x1FD6, 0x1FDB, 0x1FE0, 0x1FEC, 0x1FF2, 0x1FF4, 0x1FF6, 0x1FFC, 0x2126, 0x2126,
	0x212A, 0x212B, 0x212E, 0x212E, 0x2180, 0x2182, 0x3007, 0x3007, 0x3021, 0x3029, 0x3041, 0x3094,
	0x30A1, 0x30FA, 0x3105, 0x312C, 0x4E00, 0x9FA5, 0xAC00, 0xD7A3,
}

var nameCharRanges = [...]uint16{
	0x00B7, 0x00B7, 0x00C0, 0x00D6, 0x00D8, 0x00F6, 0x00F8, 0x0131, 0x0134, 0x013E, 0x0141, 0x0148,
	0x014A, 0x017E, 0x0180, 0x01C3, 0x01CD, 0x01F0, 0x01F4, 0x01F5, 0x01FA, 0x0217, 0x0250, 0x02A8,
	0x02BB, 0x02C1, 0x02D0, 0x02D1, 0x0300, 0x0345, 0x0360, 0x0361, 0x0386, 0x038A, 0x038C, 0x038C,
	0x038E, 0x03A1, 0x03A3, 0x03CE, 0x03D0, 0x03D6, 0x03DA, 0x03DA, 0x03DC, 0x03DC, 0x03DE, 0x03DE,
	0x03E0, 0x03E0, 0x03E2, 0x03F3, 0x0401, 0x040C, 0x040E, 0x044F, 0x0451, 0x045C, 0x045E, 0x0481,
	0x0483, 0x0486, 0x0490, 0x04C4, 0x04C7, 0x04C8, 0x04CB, 0x04CC, 0x04D0, 0x04EB, 0x04EE, 0x04F5,
	0x04F8, 0x04F9, 0x0531, 0x0556, 0x0559, 0x0559, 0x0561, 0x0586, 0x0591, 0x05A1, 0x05A3, 0x05B9,
	0x05BB, 0x05BD, 0x05BF, 0x05BF, 0x05C1, 0x05C2, 0x05C4, 0x05C4, 0x05D0, 0x05EA, 0x05F0, 0x05F2,
	0x0621, 0x063A, 0x0640, 0x0652, 0x0660, 0x0669, 0x0670, 0x06B7, 0x06BA, 0x06BE, 0x06C0, 0x06CE,
	0x06D0, 0x06D3, 0x06D5, 0x06E8, 0x06EA, 0x06ED, 0x06F0, 0x06F9, 0x0901, 0x0903, 0x0905, 0x0939,
	0x093C, 0x094D, 0x0951, 0x0954, 0x0958, 0x0963, 0x0966, 0x096F, 0x0981, 0x0983, 0x0985, 0x098C,
	0x098F, 0x0990, 0x0993, 0x09A8, 0x09AA, 0x09B0, 0x09B2, 0x09B2, 0x09B6, 0x09B9, 0x09BC, 0x09BC,
	0x09BE, 0x09C4, 0x09C7, 0x09C8, 0x09CB, 0x09CD, 0x09D7, 0x09D7, 0x09DC, 0x09DD, 0x09DF, 0x09E3,
	0x09E6, 0x09F1, 0x0A02, 0x0A02, 0x0A05, 0x0A0A, 0x0A0F, 0x0A10, 0x0A13, 0x0A28, 0x0A2A, 0x0A30,
	0x0A32, 0x0A33, 0x0A35, 0x0A36, 0x0A38, 0x0A39, 0x0A3C, 0x0A3C, 0x0A3E, 0x0A42, 0x0A47, 0x0A48,
	0x0A4B, 0x0A4D, 0x0A59, 0x0A5C, 0x0A5E, 0x0A5E, 0x0A66, 0x0A74, 0x0A81, 0x0A83, 0x0A85, 0x0A8B,
	0x0A8D, 0x0A8D, 0x0A8F, 0x0A91, 0x0A93, 0x0AA8, 0x0AAA, 0x0AB0, 0x0AB2, 0x0AB3, 0x0AB5, 0x0AB9,
	0x0ABC, 0x0AC5, 0x0AC7, 0x0AC9, 0x0ACB, 0x0ACD, 0x0AE0, 0x0AE0, 0x0AE6, 0x0AEF, 0x0B01, 0x0B03,
	0x0B05, 0x0B0C, 0x0B0F, 0x0B10, 0x0B13, 0x0B28, 0x0B2A, 0x0B30, 0x0B32, 0x0B33, 0x0B36, 0x0B39,
	0x0B3C, 0x0B43, 0x0B47, 0x0B48, 0x0B4B, 0x0B4D, 0x0B56, 0x0B57, 0x0B5C, 0x0B5D, 0x0B5F, 0x0B61,
	0x0B66, 0x0B6F, 0x0B82, 0x0B83, 0x0B85, 0x0B8A, 0x0B8E, 0x0B90, 0x0B92, 0x0B95, 0x0B99, 0x0B9A,
	0x0B9C, 0x0B9C, 0x0B9E, 0x0B9F, 0x0BA3, 0x0BA4, 0x0BA8, 0x0BAA, 0x0BAE, 0x0BB5, 0x0BB7, 0x0BB9,
	0x0BBE, 0x0BC2, 0x0BC6, 0x0BC8, 0x0BCA, 0x0BCD, 0x0BD7, 0x0BD7, 0x0BE7, 0x0BEF, 0x0C01, 0x0C03,
	0x0C05, 0x0C0C, 0x0C0E, 0x0C10, 0x0C12, 0x0C28, 0x0C2A, 0x0C33, 0x0C35, 0x0C39, 0x0C3E, 0x0C44,
	0x0C46, 0x0C48, 0x0C4A, 0x0C4D, 0x0C55, 0x0C56, 0x0C60, 0x0C61, 0x0C66, 0x0C6F, 0x0C82, 0x0C83,
	0x0C85, 0x0C8C, 0x0C8E, 0x0C90, 0x0C92, 0x0CA8, 0x0CAA, 0x0CB3, 0x0CB5, 0x0CB9, 0x0CBE, 0x0CC4,
	0x0CC6, 0x0CC8, 0x0CCA, 0x0CCD, 0x0CD5, 0x0CD6, 0x0CDE, 0x0CDE, 0x0CE0, 0x0CE1, 0x0CE6, 0x0CEF,
	0x0D02, 0x0D03, 0x0D05, 0x0D0C, 0x0D0E, 0x0D10, 0x0D12, 0x0D28, 0x0D2A, 0x0D39, 0x0D3E, 0x0D43,
	0x0D46, 0x0D48, 0x0D4A, 0x0D4D, 0x0D57, 0x0D57, 0x0D60, 0x0D61, 0x0D66, 0x0D6F, 0x0E01, 0x0E2E,
	0x0E30, 0x0E3A, 0x0E40, 0x0E4E, 0x0E50, 0x0E59, 0x0E81, 0x0E82, 0x0E84, 0x0E84, 0x0E87, 0x0E88,
	0x0E8A, 0x0E8A, 0x0E8D, 0x0E8D, 0x0E94, 0x0E97, 0x0E99, 0x0E9F, 0x0EA1, 0x0EA3, 0x0EA5, 0x0EA5,
	0x0EA7, 0x0EA7, 0x0EAA, 0x0EAB, 0x0EAD, 0x0EAE, 0x0EB0, 0x0EB9, 0x0EBB, 0x0EBD, 0x0EC0, 0x0EC4,
	0x0EC6, 0x0EC6, 0x0EC8, 0x0ECD, 0x0ED0, 0x0ED9, 0x0F18, 0x0F19, 0x0F20, 0x0F29, 0x0F35, 0x0F35,
	0x0F37, 0x0F37, 0x0F39, 0x0F39, 0x0F3E, 0x0F47, 0x0F49, 0x0F69, 0x0F71, 0x0F84, 0x0F86, 0x0F8B,
	0x0F90, 0x0F95, 0x0F97, 0x0F97, 0x0F99, 0x0FAD, 0x0FB1, 0x0FB7, 0x0FB9, 0x0FB9, 0x10A0, 0x10C5,
	0x10D0, 0x10F6, 0x1100, 0x1100, 0x1102, 0x1103, 0x1105, 0x1107, 0x1109, 0x1109, 0x110B, 0x110C,
	0x110E, 0x1112, 0x113C, 0x113C, 0x113E, 0x113E, 0x1140, 0x1140, 0x114C, 0x114C, 0x114E, 0x114E,
	0x1150, 0x1150, 0x1154, 0x1155, 0x1159, 0x1159, 0x115F, 0x1161, 0x1163, 0x1163, 0x1165, 0x1165,
	0x1167, 0x1167, 0x1169, 0x1169, 0x116D, 0x116E, 0x1172, 0x1173, 0x1175, 0x1175, 0x119E, 0x119E,
	0x11A8, 0x11A8, 0x11AB, 0x11AB, 0x11AE, 0x11AF, 0x11B7, 0x11B8, 0x11BA, 0x11BA, 0x11BC, 0x11C2,
	0x11EB, 0x11EB, 0x11F0, 0x11F0, 0x11F9, 0x11F9, 0x1E00, 0x1E9B, 0x1EA0, 0x1EF9, 0x1F00, 0x1F15,
	0x1F18, 0x1F1D, 0x1F20, 0x1F45, 0x1F48, 0x1F4D, 0x1F50, 0x1F57, 0x1F59, 0x1F59, 0x1F5B, 0x1F5B,
	0x1F5D, 0x1F5D, 0x1F5F, 0x1F7D, 0x1F80, 0x1FB4, 0x1FB6, 0x1FBC, 0x1FBE, 0x1FBE, 0x1FC2, 0x1FC4,
	0x1FC6, 0x1FCC, 0x1FD0, 0x1FD3, 0x1FD6, 0x1FDB, 0x1FE0, 0x1FEC, 0x1FF2, 0x1FF4, 0x1FF6, 0x1FFC,
	0x20D0, 0x20DC, 0x20E1, 0x20E1, 0x2126, 0x2126, 0x212A, 0x212B, 0x212E, 0x212E, 0x2180, 0x2182,
	0x3005, 0x3005, 0x3007, 0x3007, 0x3021, 0x302F, 0x3031, 0x3035, 0x3041, 0x3094, 0x3099, 0x309A,
	0x309D, 0x309E, 0x30A1, 0x30FA, 0x30FC, 0x30FE, 0x3105, 0x312C, 0x4E00, 0x9FA5, 0xAC00, 0xD7A3,
}
