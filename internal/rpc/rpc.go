// Package rpc defines the protocol-independent request/response model that
// the Clarens framework dispatches on, and the Codec interface implemented
// by the XML-RPC, SOAP, and JSON-RPC wire formats (paper §1, §2: "At the
// basis of a Web Service call is a protocol (frequently, but not
// exclusively, XML-RPC or SOAP)"; Clarens supports "multiple protocols
// (XML-RPC, SOAP, ... JSON-RPC)").
//
// Value model shared by all codecs. Encoders accept and decoders produce:
//
//	nil, bool, int, int64, float64, string, []byte, time.Time,
//	[]any (arrays), map[string]any (structs)
//
// Decoders normalize integers to int and nested composites recursively.
package rpc

import (
	"fmt"
	"io"
	"math"
	"time"
)

// Request is a decoded method invocation.
type Request struct {
	Method string
	Params []any
	// ID is the request correlation ID where the protocol has one
	// (JSON-RPC); nil otherwise.
	ID any
}

// Response is the result of a method invocation: exactly one of Result or
// Fault is meaningful.
type Response struct {
	Result any
	Fault  *Fault
	ID     any
}

// Fault is a protocol-level error (XML-RPC fault / SOAP Fault / JSON-RPC
// error object). It implements error.
type Fault struct {
	Code    int
	Message string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("rpc fault %d: %s", f.Code, f.Message)
}

// Standard fault codes used by the framework, aligned with the XML-RPC
// spec extensions and JSON-RPC 2.0 reserved ranges where sensible.
const (
	CodeParse          = -32700
	CodeInvalidRequest = -32600
	CodeMethodNotFound = -32601
	CodeInvalidParams  = -32602
	CodeInternal       = -32603
	CodeAccessDenied   = -32001
	CodeNotAuthorized  = -32002
	// CodeOverloaded marks a call the server refused BEFORE executing it
	// — load shedding or a graceful drain in progress. It is the one
	// fault code clients may always retry (with backoff, ideally against
	// another peer): the request provably had no effect.
	CodeOverloaded  = -32003
	CodeApplication = -32500
)

// Wire intake bounds shared by the server, the client and the decoders.
const (
	// MaxBodyBytes caps a request body the server reads and a response
	// body the client reads.
	MaxBodyBytes = 64 << 20
	// MaxDepth is the most arrays and structs a decoder lets a value
	// nest one inside another (the XML-RPC decoder enforces it so far).
	// It bounds the decoder's recursion, so no payload can exhaust the
	// stack.
	MaxDepth = 256
)

// Retryable reports whether a fault code indicates a request that never
// executed and is therefore safe to retry on any method.
func Retryable(code int) bool { return code == CodeOverloaded }

// Codec translates between wire bytes and the request/response model. A
// Codec must be safe for concurrent use.
type Codec interface {
	// Name is the short protocol name: "xmlrpc", "soap", "jsonrpc".
	Name() string
	// ContentTypes lists the MIME types this codec serves; the first entry
	// is used for responses.
	ContentTypes() []string

	DecodeRequest(r io.Reader) (*Request, error)
	EncodeResponse(w io.Writer, resp *Response) error

	EncodeRequest(w io.Writer, req *Request) error
	DecodeResponse(r io.Reader) (*Response, error)
}

// Normalize converts encoder-friendly values into the canonical decoded
// forms, so that results round-trip identically through any codec:
// all signed integer types become int, float32 becomes float64,
// map[string]string widens to map[string]any, []string to []any.
func Normalize(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, int, float64, string, []byte, time.Time:
		return x, nil
	case int8:
		return int(x), nil
	case int16:
		return int(x), nil
	case int32:
		return int(x), nil
	case int64:
		return int(x), nil
	case uint:
		if uint64(x) > math.MaxInt64 {
			return nil, fmt.Errorf("rpc: uint value %d overflows int", x)
		}
		return int(x), nil
	case uint8:
		return int(x), nil
	case uint16:
		return int(x), nil
	case uint32:
		return int(x), nil
	case uint64:
		if x > math.MaxInt64 {
			return nil, fmt.Errorf("rpc: uint64 value %d overflows int", x)
		}
		return int(x), nil
	case float32:
		return float64(x), nil
	case []any:
		// Fast path: an array whose elements are all already canonical
		// scalars is returned as-is, with no copy. Dispatch hands cached
		// results (e.g. the system.list_methods name list) through here
		// once per request, so the copy would be pure allocation churn.
		for i, e := range x {
			switch e.(type) {
			case nil, bool, int, float64, string:
				continue
			}
			out := make([]any, len(x))
			copy(out, x[:i])
			for j := i; j < len(x); j++ {
				n, err := Normalize(x[j])
				if err != nil {
					return nil, err
				}
				out[j] = n
			}
			return out, nil
		}
		return x, nil
	case []string:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = e
		}
		return out, nil
	case []int:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = e
		}
		return out, nil
	case []float64:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = e
		}
		return out, nil
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			n, err := Normalize(e)
			if err != nil {
				return nil, err
			}
			out[k] = n
		}
		return out, nil
	case map[string]string:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = e
		}
		return out, nil
	default:
		return nil, fmt.Errorf("rpc: unsupported value type %T", v)
	}
}

// CoerceInt accepts the integer encodings the codecs may produce for one
// logical value: int (XML-RPC, SOAP, integral JSON numbers), int64, and
// exact float64 (JSON cannot distinguish 3.0 from 3, so JSON-RPC peers
// may deliver integral doubles).
func CoerceInt(v any) (int, bool) {
	switch n := v.(type) {
	case int:
		return n, true
	case int64:
		return int(n), true
	case float64:
		if n == float64(int(n)) {
			return int(n), true
		}
	}
	return 0, false
}

// CoerceBytes accepts a binary payload however the codec delivered it:
// []byte from the base64-aware decoders, string from codecs (or peers)
// that surface binary as text.
func CoerceBytes(v any) ([]byte, bool) {
	switch b := v.(type) {
	case []byte:
		return b, true
	case string:
		return []byte(b), true
	}
	return nil, false
}

// NormalizeParams normalizes every parameter in place-compatible fashion.
func NormalizeParams(params []any) ([]any, error) {
	out := make([]any, len(params))
	for i, p := range params {
		n, err := Normalize(p)
		if err != nil {
			return nil, fmt.Errorf("rpc: param %d: %w", i, err)
		}
		out[i] = n
	}
	return out, nil
}

// Equal compares two normalized values for semantic equality; used by
// cross-codec round-trip tests and by callers comparing results.
func Equal(a, b any) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case int:
		y, ok := b.(int)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case []byte:
		y, ok := b.([]byte)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Equal(y)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !Equal(v, w) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
