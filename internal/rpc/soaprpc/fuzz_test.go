package soaprpc

import (
	"bytes"
	"encoding/xml"
	"errors"
	"strings"
	"testing"

	"clarens/internal/rpc"
	"clarens/internal/rpc/codectest"
)

// FuzzSOAPDecodeRequest checks that no input panics the SOAP request
// decoder, that every refusal is a parse or parameter fault, that a
// request decodes only while its elements nest no deeper than
// maxElementDepth below the call, and that a decoded request encodes
// back into one that decodes. Every codectest value, encoded as a
// request, must decode to itself; those requests also seed the corpus
// next to the files under testdata/fuzz.
func FuzzSOAPDecodeRequest(f *testing.F) {
	for name, v := range codectest.Values() {
		var buf bytes.Buffer
		if err := New().EncodeRequest(&buf, &rpc.Request{Method: "system.echo", Params: []any{v}}); err != nil {
			f.Fatalf("%s: encode: %v", name, err)
		}
		req, err := New().DecodeRequest(bytes.NewReader(buf.Bytes()))
		if err != nil || req.Method != "system.echo" || len(req.Params) != 1 || !rpc.Equal(req.Params[0], v) {
			f.Fatalf("%s: decode(encode(%#v)) = %+v, %v", name, v, req, err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := New().DecodeRequest(bytes.NewReader(data))
		depth := callNesting(data)
		if err != nil {
			var fault *rpc.Fault
			if !errors.As(err, &fault) || fault.Code != rpc.CodeParse && fault.Code != rpc.CodeInvalidParams {
				t.Fatalf("request error %v is not a parse or parameter fault", err)
			}
			if strings.Contains(err.Error(), errTooDeep.Error()) && depth <= maxElementDepth {
				t.Fatalf("depth cap hit at nesting %d", depth)
			}
			return
		}
		if depth > maxElementDepth {
			t.Fatalf("decoded a request nested %d deep", depth)
		}
		var buf bytes.Buffer
		if err := New().EncodeRequest(&buf, req); err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		again, err := New().DecodeRequest(&buf)
		if err != nil || again.Method != req.Method || len(again.Params) != len(req.Params) {
			t.Fatalf("re-decoding %+v gave %+v, %v", req, again, err)
		}
	})
}

// callNesting returns how deep elements nest below the Body's first
// element (the call), walking the well-formed prefix of data the way
// parseEnvelope does: the call is the first element of the first Body
// child of the root.
func callNesting(data []byte) int {
	d := xml.NewDecoder(bytes.NewReader(data))
	depth, most := 0, 0
	bodySeen, inBody, inCall := false, false, false
	for {
		tok, err := d.Token()
		if err != nil {
			return most
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			switch {
			case depth == 2 && !bodySeen && t.Name.Local == "Body":
				bodySeen, inBody = true, true
			case depth == 3 && inBody && !inCall:
				inCall = true
			case inCall:
				most = max(most, depth-3)
			}
		case xml.EndElement:
			switch {
			case depth == 3 && inCall:
				return most
			case depth == 2 && inBody:
				return most
			}
			depth--
		}
	}
}

// TestSOAPDepthCap decodes a request whose leaf sits inside rpc.MaxDepth
// nested structs and refuses one level more.
func TestSOAPDepthCap(t *testing.T) {
	// The parameter p and every <item> but the innermost are structs.
	nest := func(structs int) string {
		return "<Envelope><Body><m><p>" + strings.Repeat("<item>", structs) + "x" +
			strings.Repeat("</item>", structs) + "</p></m></Body></Envelope>"
	}
	req, err := New().DecodeRequest(strings.NewReader(nest(rpc.MaxDepth)))
	if err != nil {
		t.Fatalf("nesting %d: %v", rpc.MaxDepth, err)
	}
	v := req.Params[0]
	for i := 0; i < rpc.MaxDepth; i++ {
		m, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("level %d = %#v", i, v)
		}
		v = m["item"]
	}
	if v != "x" {
		t.Fatalf("leaf = %#v", v)
	}
	_, err = New().DecodeRequest(strings.NewReader(nest(rpc.MaxDepth + 1)))
	var fault *rpc.Fault
	if !errors.As(err, &fault) || fault.Code != rpc.CodeParse || !strings.Contains(err.Error(), errTooDeep.Error()) {
		t.Fatalf("nesting %d: %v, want the depth-cap parse fault", rpc.MaxDepth+1, err)
	}
}
