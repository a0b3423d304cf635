package core

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"clarens/internal/rpc"
	"clarens/internal/rpc/soaprpc"
	"clarens/internal/rpc/xmlrpc"
)

// TestHostileBodiesFault posts to a live server the bodies that used to
// crash it or grow its memory without bound: XML-RPC values and SOAP
// elements nested 10^6 deep (about 43 and 13 MB) and a streamed body past
// rpc.MaxBodyBytes. Each gets a parse fault, and the server keeps serving.
func TestHostileBodiesFault(t *testing.T) {
	s := newTestServer(t)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	url := s.URL() + s.RPCPath()
	postAs := func(c rpc.Codec, body io.Reader) *rpc.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "text/xml")
		if c.Name() == "soap" {
			req.Header.Set("SOAPAction", `"urn:clarens#system.ping"`)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := c.DecodeResponse(resp.Body)
		if err != nil {
			t.Fatalf("HTTP %d: %v", resp.StatusCode, err)
		}
		return out
	}
	post := func(body io.Reader) *rpc.Response { return postAs(xmlrpc.New(), body) }
	wantParseFault := func(what string, resp *rpc.Response) {
		t.Helper()
		if resp.Fault == nil || resp.Fault.Code != rpc.CodeParse {
			t.Fatalf("%s: got %+v, want a parse fault", what, resp)
		}
		var ping bytes.Buffer
		xmlrpc.New().EncodeRequest(&ping, &rpc.Request{Method: "system.ping"})
		if resp := post(&ping); resp.Fault != nil {
			t.Fatalf("system.ping after %s: %v", what, resp.Fault)
		}
	}

	// Both bodies stream from generators of unknown length, so they go
	// out chunked and only the server's own cap stops the second.
	const depth = 1_000_000
	deep := io.MultiReader(
		strings.NewReader("<methodCall><methodName>system.ping</methodName><params><param><value>"),
		&repeatReader{s: "<array><data><value>", n: depth},
		&repeatReader{s: "</value></data></array>", n: depth},
		strings.NewReader("</value></param></params></methodCall>"))
	wantParseFault("a deeply nested body", post(deep))

	deepSOAP := io.MultiReader(
		strings.NewReader(`<Envelope><Body><system.ping>`),
		&repeatReader{s: "<item>", n: depth},
		&repeatReader{s: "</item>", n: depth},
		strings.NewReader(`</system.ping></Body></Envelope>`))
	wantParseFault("a deeply nested SOAP body", postAs(soaprpc.New(), deepSOAP))

	spaces := &repeatReader{s: strings.Repeat(" ", 1024), n: rpc.MaxBodyBytes/1024 + 1}
	wantParseFault("an oversize body", post(io.MultiReader(strings.NewReader("<methodCall>"), spaces)))
}

// repeatReader yields s, n times over.
type repeatReader struct {
	s   string
	n   int // repetitions left
	off int // bytes of the current repetition already read
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	total := 0
	for len(p) > 0 && r.n > 0 {
		c := copy(p, r.s[r.off:])
		p, total, r.off = p[c:], total+c, r.off+c
		if r.off == len(r.s) {
			r.off, r.n = 0, r.n-1
		}
	}
	return total, nil
}
