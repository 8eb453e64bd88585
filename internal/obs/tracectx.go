package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
)

// TraceHeader is the HTTP header carrying a request's trace ID in both
// directions: clients may supply one on submission, and every reveald
// response echoes the request's (possibly freshly minted) trace ID so
// `revealctl submit` can print a correlatable identifier.
const TraceHeader = "X-Reveal-Trace-Id"

// TraceContext is the propagated identity of one request as it crosses the
// service boundary: HTTP handler → job queue → worker attempt → pipeline
// stages. The zero value means "no trace".
type TraceContext struct {
	// TraceID identifies the whole request (16 lowercase hex chars).
	TraceID string
	// SpanID identifies the immediate parent span within the trace; child
	// spans record it so cross-process flow events can be stitched.
	SpanID string
}

// traceCtxKey is the context key for TraceContext values.
type traceCtxKey struct{}

// WithTraceContext returns a context carrying tc.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom extracts the TraceContext from ctx (zero value when
// absent).
func TraceContextFrom(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	tc, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc
}

// TraceIDFrom returns the trace ID carried by ctx ("" when absent).
func TraceIDFrom(ctx context.Context) string { return TraceContextFrom(ctx).TraceID }

// traceSeq breaks ties when the crypto source is unavailable, so IDs stay
// unique within the process even on the fallback path.
var traceSeq atomic.Uint64

// NewTraceID mints a 64-bit random trace ID rendered as 16 hex characters.
// Trace IDs are correlation handles, not part of any replayed computation,
// so they are intentionally outside the deterministic seed discipline.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The crypto source essentially cannot fail; fall back to a
		// process-local counter rather than panicking in a middleware.
		n := traceSeq.Add(1)
		for i := 0; i < 8; i++ {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s is usable as an externally supplied trace
// ID: 1–64 characters drawn from [0-9a-zA-Z_.-]. Anything else is replaced
// by a freshly minted ID instead of being echoed into logs and journals.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '_', c == '.', c == '-':
		default:
			return false
		}
	}
	return true
}
