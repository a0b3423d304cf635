package xmlrpc

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"clarens/internal/rpc"
)

// The fuzz targets check the scanner against the encoding/xml oracle in
// oracle_test.go: on every input both fail, or both succeed with equal
// results. The one allowed difference is the scanner's depth cap, and
// only on an input that really nests arrays and structs deeper than
// rpc.MaxDepth.

func FuzzDecodeRequest(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := New().DecodeRequest(bytes.NewReader(data))
		want, oerr := oracleDecodeRequest(bytes.NewReader(data))
		if depthCapped(t, data, err, oerr) {
			return
		}
		if (err == nil) != (oerr == nil) {
			t.Fatalf("scanner error %v, oracle error %v", err, oerr)
		}
		if err != nil {
			var f *rpc.Fault
			if !errors.As(err, &f) || f.Code != rpc.CodeParse {
				t.Fatalf("request error %v is not a parse fault", err)
			}
			return
		}
		if got.Method != want.Method || (got.Params == nil) != (want.Params == nil) ||
			!same(got.Params, want.Params) {
			t.Fatalf("scanner %q %#v, oracle %q %#v", got.Method, got.Params, want.Method, want.Params)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := New().DecodeResponse(bytes.NewReader(data))
		want, oerr := oracleDecodeResponse(bytes.NewReader(data))
		if depthCapped(t, data, err, oerr) {
			return
		}
		if (err == nil) != (oerr == nil) {
			t.Fatalf("scanner error %v, oracle error %v", err, oerr)
		}
		if err != nil {
			return
		}
		if (got.Fault == nil) != (want.Fault == nil) ||
			got.Fault != nil && *got.Fault != *want.Fault ||
			!same(got.Result, want.Result) {
			t.Fatalf("scanner %#v, oracle %#v", got, want)
		}
	})
}

// addSeeds adds to the files under testdata/fuzz a request and a
// response carrying each of a few values of every type.
func addSeeds(f *testing.F) {
	for _, v := range []any{
		"module.method_00", 42, -7, 1 << 40, 3.25, true, nil, []byte{0, 1, 254},
		[]any{"a", 1, []any{}}, map[string]any{"k": "v", "n": []any{1}},
	} {
		var buf bytes.Buffer
		New().EncodeRequest(&buf, &rpc.Request{Method: "m", Params: []any{v}})
		f.Add(buf.Bytes())
		buf.Reset()
		New().EncodeResponse(&buf, &rpc.Response{Result: v})
		f.Add(buf.Bytes())
	}
}

// depthCapped reports whether the scanner refused data for its nesting,
// failing the test unless data really nests deeper than rpc.MaxDepth.
func depthCapped(t *testing.T, data []byte, err, oerr error) bool {
	if err == nil || !strings.Contains(err.Error(), errTooDeep.Error()) {
		return false
	}
	if oerr == nil && nesting(data) <= rpc.MaxDepth {
		t.Fatalf("depth cap hit at nesting %d", nesting(data))
	}
	return true
}

// nesting returns the most <array> and <struct> elements open at once in
// the well-formed prefix of data.
func nesting(data []byte) int {
	d := xml.NewDecoder(bytes.NewReader(data))
	var open []bool
	depth, most := 0, 0
	for {
		tok, err := d.Token()
		if err != nil {
			return most
		}
		switch t := tok.(type) {
		case xml.StartElement:
			c := t.Name.Local == "array" || t.Name.Local == "struct"
			open = append(open, c)
			if c {
				depth++
				most = max(most, depth)
			}
		case xml.EndElement:
			if open[len(open)-1] {
				depth--
			}
			open = open[:len(open)-1]
		}
	}
}

// same is rpc.Equal, except that NaN equals NaN: both decoders parse
// "NaN" and the question is whether they agree.
func same(a, b any) bool {
	return rpc.Equal(nanFree(a), nanFree(b))
}

func nanFree(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) {
			return "NaN"
		}
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = nanFree(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = nanFree(e)
		}
		return out
	}
	return v
}

// TestNameTablesMatchEncodingXML checks the scanner's name character
// tables against encoding/xml on every character of the Basic
// Multilingual Plane and the start of the next.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(doc string) bool {
		_, err := xml.NewDecoder(strings.NewReader(doc)).Token()
		return err == nil
	}
	for r := rune(0x80); r < 0x10100; r++ {
		if r >= 0xD800 && r <= 0xDFFF {
			continue
		}
		c := string(r)
		if got, want := isNameStart(r), accepts("<"+c+"/>"); got != want {
			t.Errorf("isNameStart(%U) = %v, encoding/xml %v", r, got, want)
		}
		if got, want := isNameChar(r), accepts("<a"+c+"/>"); got != want {
			t.Errorf("isNameChar(%U) = %v, encoding/xml %v", r, got, want)
		}
	}
}

// TestDecodeAllocs gates the allocations of decoding the Figure 4 reply:
// the 34-string array of BenchmarkProtocols.
func TestDecodeAllocs(t *testing.T) {
	methods := make([]any, 34)
	for i := range methods {
		methods[i] = fmt.Sprintf("module.method_%02d", i)
	}
	var buf bytes.Buffer
	if err := New().EncodeResponse(&buf, &rpc.Response{Result: methods}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	r := bytes.NewReader(wire)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(wire)
		if _, err := New().DecodeResponse(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 120 {
		t.Errorf("decoding the Figure 4 reply costs %.0f allocs, want at most 120", allocs)
	}
}

// TestDepthCap decodes values nested just up to rpc.MaxDepth and refuses
// one level more, without recursing the stack away on a deep payload.
func TestDepthCap(t *testing.T) {
	nest := func(n int) []byte {
		var b bytes.Buffer
		b.WriteString("<methodCall><methodName>m</methodName><params><param><value>")
		b.WriteString(strings.Repeat("<array><data><value>", n))
		b.WriteString("<int>1</int>")
		b.WriteString(strings.Repeat("</value></data></array>", n))
		b.WriteString("</value></param></params></methodCall>")
		return b.Bytes()
	}
	if _, err := New().DecodeRequest(bytes.NewReader(nest(rpc.MaxDepth))); err != nil {
		t.Fatalf("nesting %d: %v", rpc.MaxDepth, err)
	}
	for _, n := range []int{rpc.MaxDepth + 1, 1_000_000} {
		_, err := New().DecodeRequest(bytes.NewReader(nest(n)))
		var f *rpc.Fault
		if !errors.As(err, &f) || f.Code != rpc.CodeParse || !strings.Contains(f.Message, errTooDeep.Error()) {
			t.Errorf("nesting %d: got %v, want a depth parse fault", n, err)
		}
	}
	s := "<struct><member><name>k</name><value>"
	deep := "<methodResponse><params><param><value>" + strings.Repeat(s, rpc.MaxDepth+1)
	if _, err := New().DecodeResponse(strings.NewReader(deep)); err == nil || !strings.Contains(err.Error(), errTooDeep.Error()) {
		t.Errorf("nested structs: got %v, want the depth error", err)
	}
}

// TestReadError reports a failing body as a parse fault.
func TestReadError(t *testing.T) {
	r := io.MultiReader(strings.NewReader("<methodCall>"), iotest.ErrReader(errors.New("boom")))
	_, err := New().DecodeRequest(r)
	var f *rpc.Fault
	if !errors.As(err, &f) || f.Code != rpc.CodeParse || !strings.Contains(f.Message, "boom") {
		t.Errorf("got %v, want a parse fault carrying the read error", err)
	}
}
