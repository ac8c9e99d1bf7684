package obs

// Trace context: W3C-traceparent-compatible request correlation IDs,
// carried through context.Context so one request's spans, structured
// log events, metric exemplars and decision provenance all share the
// same trace ID whether the request entered with a client-supplied
// traceparent header or was assigned one at the edge.
//
// Trace IDs are observability metadata only: they are generated from a
// process-local RNG, never feed back into scoring or clustering, and
// so cannot perturb any deterministic output.

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
)

// TraceID is a 16-byte trace identifier (non-zero when valid).
type TraceID [16]byte

// SpanID is an 8-byte span identifier (non-zero when valid).
type SpanID [8]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the trace ID as 32 lower-case hex digits, with one
// allocation: the string itself.
func (t TraceID) String() string {
	var b [2 * len(t)]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

// IsZero reports whether the span ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the span ID as 16 lower-case hex digits, with one
// allocation: the string itself.
func (s SpanID) String() string {
	var b [2 * len(s)]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// TraceContext is one request's correlation identity: the trace ID
// shared by every participant and the span ID of the current hop.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero, as the traceparent spec
// requires.
func (tc TraceContext) Valid() bool { return !tc.TraceID.IsZero() && !tc.SpanID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set).
func (tc TraceContext) Traceparent() string {
	return "00-" + tc.TraceID.String() + "-" + tc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex>-<16 hex>-<2 hex>"). Unknown versions are accepted as
// long as the field layout holds; zero trace or span IDs are invalid.
func ParseTraceparent(h string) (TraceContext, error) {
	var tc TraceContext
	if len(h) < 55 {
		return tc, fmt.Errorf("obs: traceparent %q too short", h)
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tc, fmt.Errorf("obs: traceparent %q malformed", h)
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(h[3:35])); err != nil {
		return tc, fmt.Errorf("obs: traceparent trace id: %w", err)
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(h[36:52])); err != nil {
		return tc, fmt.Errorf("obs: traceparent span id: %w", err)
	}
	if !tc.Valid() {
		return TraceContext{}, fmt.Errorf("obs: traceparent %q has a zero id", h)
	}
	return tc, nil
}

// idRand generates trace/span IDs: a ChaCha8 stream seeded once from
// crypto/rand, behind a mutex (ID generation is not on the scoring hot
// path — one trace ID and a handful of span IDs per request).
var idRand = struct {
	sync.Mutex
	r *rand.ChaCha8
}{r: newChaCha8()}

func newChaCha8() *rand.ChaCha8 {
	var seed [32]byte
	if _, err := crand.Read(seed[:]); err != nil {
		// Fall back to a fixed seed: IDs stay unique within the process
		// (the stream still advances), which is all correlation needs.
		copy(seed[:], "transer.obs.trace.fallback.seed!")
	}
	return rand.NewChaCha8(seed)
}

func randomBytes(b []byte) {
	idRand.Lock()
	defer idRand.Unlock()
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, idRand.r.Uint64())
		b = b[8:]
	}
	if len(b) > 0 {
		var rest [8]byte
		binary.LittleEndian.PutUint64(rest[:], idRand.r.Uint64())
		copy(b, rest[:])
	}
}

// NewTraceID returns a fresh random non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		randomBytes(t[:])
	}
	return t
}

// NewSpanID returns a fresh random non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		randomBytes(s[:])
	}
	return s
}

// NewTraceContext returns a fresh root trace context.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
}

// ChildOf returns a context continuing tc's trace under a fresh span
// ID — the hop a server records after accepting a client traceparent.
func (tc TraceContext) ChildOf() TraceContext {
	return TraceContext{TraceID: tc.TraceID, SpanID: NewSpanID()}
}

type traceCtxKey struct{}

// ContextWithTrace returns a context carrying tc.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext returns the trace context carried by ctx, if any.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}
