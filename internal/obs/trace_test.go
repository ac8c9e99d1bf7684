package obs

import (
	"context"
	"encoding/hex"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("fresh trace context invalid: %+v", tc)
	}
	h := tc.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") {
		t.Fatalf("traceparent %q malformed", h)
	}
	got, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v, want %+v", got, tc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	for _, h := range []string{
		"",
		"00-abc",
		"00-0000000000000000000000000000000-0000000000000001-01",  // short trace id
		"00-00000000000000000000000000000000-0000000000000001-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01", // bad hex
		"00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // bad separator
	} {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
}

func TestParseTraceparentForeignVersionAndFlags(t *testing.T) {
	// Unknown version and flags parse as long as the layout holds.
	tc, err := ParseTraceparent("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	if err != nil {
		t.Fatalf("foreign version rejected: %v", err)
	}
	if tc.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace id %s", tc.TraceID)
	}
	if tc.SpanID.String() != "b7ad6b7169203331" {
		t.Fatalf("span id %s", tc.SpanID)
	}
}

func TestTraceContextChildKeepsTraceID(t *testing.T) {
	tc := NewTraceContext()
	child := tc.ChildOf()
	if child.TraceID != tc.TraceID {
		t.Fatal("child changed the trace id")
	}
	if child.SpanID == tc.SpanID {
		t.Fatal("child kept the parent span id")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() || seen[id] {
			t.Fatalf("duplicate or zero trace id at %d: %s", i, id)
		}
		seen[id] = true
	}
}

func TestContextCarry(t *testing.T) {
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Fatal("empty context carries a trace")
	}
	tc := NewTraceContext()
	ctx := ContextWithTrace(context.Background(), tc)
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("context carry: got %+v ok=%v", got, ok)
	}
}

// TestIDStringAllocatesOnce: each ID renders with one allocation, the
// string itself, and as the same hex digits encoding/hex gives.
func TestIDStringAllocatesOnce(t *testing.T) {
	tc := NewTraceContext()
	if got, want := tc.TraceID.String(), hex.EncodeToString(tc.TraceID[:]); got != want {
		t.Fatalf("TraceID.String() = %q, want %q", got, want)
	}
	if got, want := tc.SpanID.String(), hex.EncodeToString(tc.SpanID[:]); got != want {
		t.Fatalf("SpanID.String() = %q, want %q", got, want)
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = tc.TraceID.String() }); n != 1 {
		t.Errorf("TraceID.String allocates %.1f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = tc.SpanID.String() }); n != 1 {
		t.Errorf("SpanID.String allocates %.1f times, want 1", n)
	}
	_ = sink
}
