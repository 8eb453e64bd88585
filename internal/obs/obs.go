// Package obs is the observability layer of the reproduction: a structured
// slog-based logger, a concurrency-safe metrics registry (counters, gauges,
// streaming histograms with p50/p95/p99), hierarchical stage spans timing
// every step of the attack pipeline, bounded-memory event tracing (Chrome
// trace_event trace.json plus a per-coefficient coeffs.jsonl journal),
// per-run artifact manifests with a tolerance-based run comparator, and
// opt-in live HTTP endpoints (/metrics, /progress, /healthz, /debug/pprof).
//
// The package is disabled by default: the global recorder is nil, spans are
// nil pointers whose methods are no-ops, and the instrumented hot paths pay
// one atomic load per stage entry. Long campaigns enable it with
//
//	rec := obs.New(obs.Options{Level: slog.LevelInfo})
//	obs.SetGlobal(rec)
//
// or, for a fully archived run, obs.StartRun, which also writes
// manifest.json and a Prometheus-text metrics.txt into a run directory.
package obs

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder bundles a logger, a metrics registry, and the live span state.
// A nil *Recorder is valid and records nothing.
type Recorder struct {
	registry *Registry
	logger   *slog.Logger
	start    time.Time

	// spanEvents buffers Chrome trace_event records of completed spans;
	// coeffEvents journals per-coefficient classification outcomes. Either
	// is nil when the corresponding capacity was 0 (tracing disabled).
	spanEvents  *boundedBuffer[TraceEvent]
	coeffEvents *boundedBuffer[CoeffEvent]

	// serviceEvents is the append-only service journal behind the /events
	// endpoint and events.jsonl; nil when EventCapacity was 0.
	serviceEvents *EventLog

	mu     sync.Mutex
	active map[string]int
}

// Options configures a Recorder.
type Options struct {
	// Logger receives the structured log stream. Nil discards logs.
	Logger *slog.Logger
	// Registry is the metrics registry; nil allocates a fresh one.
	Registry *Registry
	// TraceCapacity bounds the span trace-event buffer exported as
	// trace.json; 0 disables span tracing.
	TraceCapacity int
	// CoeffCapacity bounds the per-coefficient event journal exported as
	// coeffs.jsonl; 0 disables the journal (aggregate coefficient metrics
	// are still recorded).
	CoeffCapacity int
	// TraceRing switches the span trace-event buffer from drop-newest (the
	// archived-run default: trace.json keeps the run's beginning) to a ring
	// that overwrites the oldest events — the right shape for a long-lived
	// daemon exporting per-job traces.
	TraceRing bool
	// EventCapacity bounds the service event journal ring served on /events
	// and written to events.jsonl; 0 disables it.
	EventCapacity int
}

// New builds a Recorder.
func New(opts Options) *Recorder {
	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	rec := &Recorder{
		registry:    reg,
		logger:      opts.Logger,
		start:       time.Now(),
		spanEvents:  newBoundedBuffer[TraceEvent](opts.TraceCapacity),
		coeffEvents: newBoundedBuffer[CoeffEvent](opts.CoeffCapacity),
		active:      map[string]int{},
	}
	rec.spanEvents.setRing(opts.TraceRing)
	if opts.EventCapacity > 0 {
		rec.serviceEvents = NewEventLog(opts.EventCapacity, reg)
	}
	return rec
}

// Registry returns the recorder's metrics registry (nil for a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.registry
}

// Logger returns the recorder's logger, or a discard logger so callers can
// log unconditionally.
func (r *Recorder) Logger() *slog.Logger {
	if r == nil || r.logger == nil {
		return discardLogger
	}
	return r.logger
}

// Uptime reports how long the recorder has been alive.
func (r *Recorder) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// global is the process-wide recorder used by the package-level helpers the
// pipeline calls. It is swapped atomically so the disabled hot path costs a
// single load.
var global atomic.Pointer[Recorder]

// SetGlobal installs rec as the process-wide recorder (nil disables).
func SetGlobal(rec *Recorder) { global.Store(rec) }

// Global returns the process-wide recorder; nil when observability is
// disabled (the default).
func Global() *Recorder { return global.Load() }

// Log returns the global structured logger (a discard logger when
// observability is disabled), so pipeline code can log unconditionally.
func Log() *slog.Logger { return global.Load().Logger() }
