// Package xmlrpc implements the XML-RPC protocol (http://www.xmlrpc.com),
// the primary wire format of the Clarens framework and the one used in the
// paper's Figure 4 performance measurement (the response there is "a list
// of more than 30 strings as an array response in XML-RPC").
//
// Supported value elements: <i4>/<int>, <i8> (widely implemented
// extension for 64-bit integers), <boolean>, <double>, <string>,
// <dateTime.iso8601>, <base64>, <array>, <struct>, <nil/> (extension).
// A <value> with bare character data is a string, per the spec.
//
// Decoding reads the body once into a pooled buffer and walks it with a
// byte scanner for this small grammar (scan.go), building values
// directly. The scanner keeps the well-formedness rules of encoding/xml's
// strict token decoder, which decoded XML-RPC before it; that decoder
// lives on in the package's tests as the oracle the fuzz targets compare
// the scanner against. Arrays and structs may nest at most rpc.MaxDepth
// deep; a deeper value is a parse error, so no payload can exhaust the
// stack.
package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"clarens/internal/rpc"
)

// Codec is the XML-RPC implementation of rpc.Codec. The zero value is
// ready to use.
type Codec struct{}

// New returns the XML-RPC codec.
func New() *Codec { return &Codec{} }

// Name implements rpc.Codec.
func (*Codec) Name() string { return "xmlrpc" }

// contentTypes is shared across calls: ContentTypes sits on the
// per-response hot path and must not allocate.
var contentTypes = []string{"text/xml", "application/xml"}

// ContentTypes implements rpc.Codec. XML-RPC is served as text/xml.
// Callers must not modify the returned slice.
func (*Codec) ContentTypes() []string { return contentTypes }

// iso8601 is the XML-RPC dateTime layout (no timezone designator in the
// original spec; we emit UTC and accept common variants).
const iso8601 = "20060102T15:04:05"

var iso8601Variants = []string{
	iso8601,
	"2006-01-02T15:04:05",
	"20060102T15:04:05Z07:00",
	"2006-01-02T15:04:05Z07:00",
}

// --- encoding ---

// escapeString writes s XML-escaped without converting it to []byte (the
// conversion xml.EscapeText forces is one allocation per string, which on
// the Figure 4 workload — >30 strings per response — dominated the encode
// profile). Unescaped runs are copied in chunks. Strings containing
// invalid UTF-8 take the xml.EscapeText slow path, which substitutes
// U+FFFD so the emitted document stays well-formed.
func escapeString(b *bytes.Buffer, s string) {
	if !utf8.ValidString(s) {
		xml.EscapeText(b, []byte(s))
		return
	}
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
		case '\'':
			esc = "&#39;"
		case '"':
			esc = "&#34;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			continue
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		last = i + 1
	}
	b.WriteString(s[last:])
}

func encodeValue(b *bytes.Buffer, v any) error {
	b.WriteString("<value>")
	if err := encodeValueInner(b, v); err != nil {
		return err
	}
	b.WriteString("</value>")
	return nil
}

func encodeValueInner(b *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		b.WriteString("<nil/>")
	case bool:
		if x {
			b.WriteString("<boolean>1</boolean>")
		} else {
			b.WriteString("<boolean>0</boolean>")
		}
	case int:
		if x >= math.MinInt32 && x <= math.MaxInt32 {
			b.WriteString("<int>")
			b.WriteString(strconv.Itoa(x))
			b.WriteString("</int>")
		} else {
			b.WriteString("<i8>")
			b.WriteString(strconv.Itoa(x))
			b.WriteString("</i8>")
		}
	case float64:
		b.WriteString("<double>")
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		b.WriteString("</double>")
	case string:
		b.WriteString("<string>")
		escapeString(b, x)
		b.WriteString("</string>")
	case []byte:
		b.WriteString("<base64>")
		b.WriteString(base64.StdEncoding.EncodeToString(x))
		b.WriteString("</base64>")
	case time.Time:
		b.WriteString("<dateTime.iso8601>")
		b.WriteString(x.UTC().Format(iso8601))
		b.WriteString("</dateTime.iso8601>")
	case []any:
		b.WriteString("<array><data>")
		for _, e := range x {
			if err := encodeValue(b, e); err != nil {
				return err
			}
		}
		b.WriteString("</data></array>")
	case map[string]any:
		b.WriteString("<struct>")
		for _, k := range sortedKeys(x) {
			b.WriteString("<member><name>")
			escapeString(b, k)
			b.WriteString("</name>")
			if err := encodeValue(b, x[k]); err != nil {
				return err
			}
			b.WriteString("</member>")
		}
		b.WriteString("</struct>")
	default:
		n, err := rpc.Normalize(v)
		if err != nil {
			return fmt.Errorf("xmlrpc: %w", err)
		}
		return encodeValueInner(b, n)
	}
	return nil
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// targetBuffer returns w itself when it already is a *bytes.Buffer (the
// server encodes responses into pooled buffers), avoiding a second
// staging buffer and the copy out of it. flush is non-nil when a staging
// buffer had to be created for a plain writer.
func targetBuffer(w io.Writer) (b *bytes.Buffer, flush func() error) {
	if buf, ok := w.(*bytes.Buffer); ok {
		return buf, nil
	}
	b = new(bytes.Buffer)
	return b, func() error {
		_, err := w.Write(b.Bytes())
		return err
	}
}

// EncodeRequest implements rpc.Codec.
func (*Codec) EncodeRequest(w io.Writer, req *rpc.Request) error {
	b, flush := targetBuffer(w)
	b.WriteString(xml.Header)
	b.WriteString("<methodCall><methodName>")
	escapeString(b, req.Method)
	b.WriteString("</methodName><params>")
	for _, p := range req.Params {
		b.WriteString("<param>")
		if err := encodeValue(b, p); err != nil {
			return err
		}
		b.WriteString("</param>")
	}
	b.WriteString("</params></methodCall>")
	if flush != nil {
		return flush()
	}
	return nil
}

// EncodeResponse implements rpc.Codec.
func (*Codec) EncodeResponse(w io.Writer, resp *rpc.Response) error {
	b, flush := targetBuffer(w)
	b.WriteString(xml.Header)
	if resp.Fault != nil {
		b.WriteString("<methodResponse><fault>")
		fv := map[string]any{
			"faultCode":   resp.Fault.Code,
			"faultString": resp.Fault.Message,
		}
		if err := encodeValue(b, fv); err != nil {
			return err
		}
		b.WriteString("</fault></methodResponse>")
	} else {
		b.WriteString("<methodResponse><params><param>")
		if err := encodeValue(b, resp.Result); err != nil {
			return err
		}
		b.WriteString("</param></params></methodResponse>")
	}
	if flush != nil {
		return flush()
	}
	return nil
}

// --- decoding ---

// decoder reads one XML-RPC document: it walks the scanner's tokens with
// the grammar, and the leniencies, of the encoding/xml walker it
// replaced. Whitespace, comments, processing instructions and directives
// between elements are skipped; other text there is an error where an
// element is required and ignored between array values, struct members
// and params. Decoders are pooled with their buffers; every value they
// return is copied out of those buffers.
type decoder struct {
	scanner
	acc   []byte   // character data of the element being read
	vals  []any    // values of the arrays, structs and params being read
	keys  []string // member names of the structs being read
	depth int      // arrays and structs open around the current value
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// decoderRetainLimit is the largest buffer a pooled decoder keeps; one
// oversized body must not pin its buffer forever.
const decoderRetainLimit = 1 << 20

var errTooDeep = fmt.Errorf("xmlrpc: values nested deeper than %d", rpc.MaxDepth)

// newDecoder reads all of r into a pooled decoder. The caller must
// release it, also on error.
func newDecoder(r io.Reader) (*decoder, error) {
	d := decoderPool.Get().(*decoder)
	b := d.buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			d.buf = b
			return d, fmt.Errorf("xmlrpc: read body: %w", err)
		}
	}
	d.buf = b
	return d, nil
}

func (d *decoder) release() {
	d.buf = retain(d.buf, decoderRetainLimit)
	d.scratch = retain(d.scratch, decoderRetainLimit)
	d.acc = retain(d.acc, decoderRetainLimit)
	// An interface or a string header takes 16 bytes.
	d.vals = retain(d.vals, decoderRetainLimit/16)
	d.keys = retain(d.keys, decoderRetainLimit/16)
	d.open, d.data = d.open[:0], nil
	d.pos, d.pendingEnd, d.depth = 0, false, 0
	decoderPool.Put(d)
}

// retain empties s for reuse, or drops it once a large document has grown
// it past limit elements.
func retain[E any](s []E, limit int) []E {
	if cap(s) > limit {
		return nil
	}
	clear(s)
	return s[:0]
}

// describe names the current token for an error message.
func (d *decoder) describe(k tokKind) string {
	switch k {
	case tokStart:
		return "<" + string(d.localName()) + ">"
	case tokEnd:
		return "</" + string(d.localName()) + ">"
	}
	return "text"
}

// next returns the next token that is neither whitespace nor a comment,
// processing instruction or directive.
func (d *decoder) next() (tokKind, error) {
	for {
		k, err := d.token()
		if err != nil {
			return 0, err
		}
		if k == tokOther || k == tokText && len(bytes.TrimSpace(d.data)) == 0 {
			continue
		}
		return k, nil
	}
}

func (d *decoder) expectStart(name string) error {
	k, err := d.next()
	if err != nil {
		return err
	}
	if k != tokStart || !d.is(name) {
		return fmt.Errorf("xmlrpc: expected <%s>, got %s", name, d.describe(k))
	}
	return nil
}

func (d *decoder) expectEnd(name string) error {
	k, err := d.next()
	if err != nil {
		return err
	}
	if k != tokEnd || !d.is(name) {
		return fmt.Errorf("xmlrpc: expected </%s>, got %s", name, d.describe(k))
	}
	return nil
}

// readText reads the character data of the element just started, up to
// its end tag, into d.acc.
func (d *decoder) readText() error {
	d.acc = d.acc[:0]
	for {
		k, err := d.token()
		if err != nil {
			return err
		}
		switch k {
		case tokText:
			d.acc = append(d.acc, d.data...)
		case tokStart:
			return fmt.Errorf("xmlrpc: unexpected child <%s>", d.localName())
		case tokEnd:
			return nil
		}
	}
}

// decodeValue decodes the contents of an already-consumed <value> start
// tag through its end tag. A <value> holding only text is a string.
func (d *decoder) decodeValue() (any, error) {
	d.acc = d.acc[:0]
	for {
		k, err := d.token()
		if err != nil {
			return nil, err
		}
		switch k {
		case tokText:
			d.acc = append(d.acc, d.data...)
		case tokEnd:
			return string(d.acc), nil
		case tokStart:
			v, err := d.decodeTypedValue()
			if err != nil {
				return nil, err
			}
			if err := d.expectEnd("value"); err != nil {
				return nil, err
			}
			return v, nil
		}
	}
}

// decodeTypedValue decodes the type element just started inside a
// <value>, through its end tag.
func (d *decoder) decodeTypedValue() (any, error) {
	typ := d.localName()
	switch string(typ) {
	case "nil":
		return nil, d.expectEnd("nil")
	case "array", "struct":
		if d.depth == rpc.MaxDepth {
			return nil, errTooDeep
		}
		d.depth++
		defer func() { d.depth-- }()
		if string(typ) == "array" {
			return d.decodeArray()
		}
		return d.decodeStruct()
	}
	if err := d.readText(); err != nil {
		return nil, err
	}
	s := bytes.TrimSpace(d.acc)
	switch string(typ) {
	case "string":
		return string(d.acc), nil
	case "int", "i4":
		n, err := strconv.ParseInt(string(s), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: bad int %q: %w", d.acc, err)
		}
		return int(n), nil
	case "i8":
		n, err := strconv.ParseInt(string(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: bad i8 %q: %w", d.acc, err)
		}
		return int(n), nil
	case "boolean":
		switch string(s) {
		case "1", "true":
			return true, nil
		case "0", "false":
			return false, nil
		}
		return nil, fmt.Errorf("xmlrpc: bad boolean %q", d.acc)
	case "double":
		f, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: bad double %q: %w", d.acc, err)
		}
		return f, nil
	case "base64":
		data := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(data, s)
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: bad base64: %w", err)
		}
		return data[:n], nil
	case "dateTime.iso8601":
		for _, layout := range iso8601Variants {
			if t, err := time.Parse(layout, string(s)); err == nil {
				return t.UTC(), nil
			}
		}
		return nil, fmt.Errorf("xmlrpc: bad dateTime %q", s)
	}
	return nil, fmt.Errorf("xmlrpc: unknown value type <%s>", typ)
}

// take moves the values above mark off the value stack into a new slice.
func (d *decoder) take(mark int) []any {
	out := make([]any, len(d.vals)-mark)
	copy(out, d.vals[mark:])
	clear(d.vals[mark:])
	d.vals = d.vals[:mark]
	return out
}

func (d *decoder) decodeArray() (any, error) {
	if err := d.expectStart("data"); err != nil {
		return nil, err
	}
	mark := len(d.vals)
	for {
		k, err := d.next()
		if err != nil {
			return nil, err
		}
		switch k {
		case tokStart:
			if !d.is("value") {
				return nil, fmt.Errorf("xmlrpc: unexpected %s in array data", d.describe(k))
			}
			v, err := d.decodeValue()
			if err != nil {
				return nil, err
			}
			d.vals = append(d.vals, v)
		case tokEnd: // </data>
			if err := d.expectEnd("array"); err != nil {
				return nil, err
			}
			return d.take(mark), nil
		}
	}
}

func (d *decoder) decodeStruct() (any, error) {
	mark, kmark := len(d.vals), len(d.keys)
	for {
		k, err := d.next()
		if err != nil {
			return nil, err
		}
		switch k {
		case tokStart:
			if !d.is("member") {
				return nil, fmt.Errorf("xmlrpc: unexpected %s in struct", d.describe(k))
			}
			if err := d.expectStart("name"); err != nil {
				return nil, err
			}
			if err := d.readText(); err != nil {
				return nil, err
			}
			d.keys = append(d.keys, string(d.acc))
			if err := d.expectStart("value"); err != nil {
				return nil, err
			}
			v, err := d.decodeValue()
			if err != nil {
				return nil, err
			}
			if err := d.expectEnd("member"); err != nil {
				return nil, err
			}
			d.vals = append(d.vals, v)
		case tokEnd: // </struct>
			m := make(map[string]any, len(d.vals)-mark)
			for i, v := range d.vals[mark:] {
				m[d.keys[kmark+i]] = v
			}
			clear(d.vals[mark:])
			clear(d.keys[kmark:])
			d.vals, d.keys = d.vals[:mark], d.keys[:kmark]
			return m, nil
		}
	}
}

// DecodeRequest implements rpc.Codec. Every failure is an rpc.CodeParse
// fault.
func (*Codec) DecodeRequest(r io.Reader) (*rpc.Request, error) {
	d, err := newDecoder(r)
	defer d.release()
	if err == nil {
		var req *rpc.Request
		if req, err = d.request(); err == nil {
			return req, nil
		}
	}
	return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
}

func (d *decoder) request() (*rpc.Request, error) {
	if err := d.expectStart("methodCall"); err != nil {
		return nil, err
	}
	if err := d.expectStart("methodName"); err != nil {
		return nil, err
	}
	if err := d.readText(); err != nil {
		return nil, err
	}
	req := &rpc.Request{Method: string(bytes.TrimSpace(d.acc))}
	// <params> is optional per spec.
	k, err := d.next()
	if err != nil {
		return nil, err
	}
	if k != tokStart {
		return req, nil // </methodCall>
	}
	if !d.is("params") {
		return nil, fmt.Errorf("xmlrpc: unexpected %s", d.describe(k))
	}
	for {
		k, err := d.next()
		if err != nil {
			return nil, err
		}
		switch k {
		case tokStart:
			if !d.is("param") {
				return nil, fmt.Errorf("xmlrpc: unexpected %s in params", d.describe(k))
			}
			if err := d.expectStart("value"); err != nil {
				return nil, err
			}
			v, err := d.decodeValue()
			if err != nil {
				return nil, err
			}
			if err := d.expectEnd("param"); err != nil {
				return nil, err
			}
			d.vals = append(d.vals, v)
		case tokEnd: // </params>
			if len(d.vals) > 0 {
				req.Params = d.take(0)
			}
			return req, nil
		}
	}
}

// DecodeResponse implements rpc.Codec.
func (*Codec) DecodeResponse(r io.Reader) (*rpc.Response, error) {
	d, err := newDecoder(r)
	defer d.release()
	if err != nil {
		return nil, err
	}
	return d.response()
}

func (d *decoder) response() (*rpc.Response, error) {
	if err := d.expectStart("methodResponse"); err != nil {
		return nil, err
	}
	k, err := d.next()
	if err != nil {
		return nil, err
	}
	if k != tokStart {
		return nil, fmt.Errorf("xmlrpc: empty methodResponse")
	}
	switch {
	case d.is("params"):
		if err := d.expectStart("param"); err != nil {
			return nil, err
		}
		if err := d.expectStart("value"); err != nil {
			return nil, err
		}
		v, err := d.decodeValue()
		if err != nil {
			return nil, err
		}
		return &rpc.Response{Result: v}, nil
	case d.is("fault"):
		if err := d.expectStart("value"); err != nil {
			return nil, err
		}
		v, err := d.decodeValue()
		if err != nil {
			return nil, err
		}
		m, ok := v.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("xmlrpc: fault value is not a struct")
		}
		f := &rpc.Fault{}
		if c, ok := m["faultCode"].(int); ok {
			f.Code = c
		}
		if s, ok := m["faultString"].(string); ok {
			f.Message = s
		}
		return &rpc.Response{Fault: f}, nil
	}
	return nil, fmt.Errorf("xmlrpc: unexpected %s in methodResponse", d.describe(k))
}

var _ rpc.Codec = (*Codec)(nil)
