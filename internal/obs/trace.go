package obs

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
)

// Per-coefficient classification-quality metrics, recorded by RecordCoeff
// alongside the journal entries so aggregates survive even when the bounded
// event buffer drops entries.
const (
	MetricCoeffEvents  = "reveal_coeff_events_total"
	MetricCoeffCorrect = "reveal_coeff_correct_total"
	MetricCoeffMargin  = "reveal_coeff_margin"
	MetricCoeffEntropy = "reveal_coeff_entropy_bits"
	MetricCoeffRank    = "reveal_coeff_rank"
)

// Default event-buffer capacities used by StartRun. A full single-trace
// attack on n=1024 emits 2·1024 coefficient events per encryption, so the
// defaults hold dozens of encryptions before dropping.
const (
	DefaultTraceCapacity = 1 << 14
	DefaultCoeffCapacity = 1 << 16
)

// TraceEvent is one record in the Chrome trace_event JSON format: the
// run-directory trace.json is loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Complete ("X") events on the same pid/tid nest by time
// containment, which renders the span hierarchy.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	Scope string         `json:"s,omitempty"`
	ID    string         `json:"id,omitempty"`  // flow/async event binding id
	TS    float64        `json:"ts"`            // microseconds since recorder start
	Dur   float64        `json:"dur,omitempty"` // microseconds, for "X" events
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// CoeffEvent is one per-coefficient classification outcome: the journaled
// evidence behind Table I. Margin is the posterior gap between the top two
// candidate values, EntropyBits the Shannon entropy of the posterior, and
// Rank the 1-based position of the true value in the posterior ordering.
type CoeffEvent struct {
	// TraceID correlates the event with the request that produced it.
	// Empty (and absent from the JSONL encoding) outside the service path,
	// so standalone runs — including the selftest digest — are unchanged.
	TraceID string `json:"trace_id,omitempty"`
	// Poly identifies the attacked polynomial ("e1", "e2").
	Poly string `json:"poly,omitempty"`
	// Index is the coefficient position within the polynomial.
	Index int `json:"index"`
	// True is the ground-truth coefficient value.
	True int `json:"true"`
	// Predicted is the maximum-likelihood value the attack recovered.
	Predicted int `json:"predicted"`
	// Sign is the recovered branch class (−1, 0, +1).
	Sign int `json:"sign"`
	// Correct reports Predicted == True.
	Correct bool `json:"correct"`
	// Margin is P(top1) − P(top2) of the posterior.
	Margin float64 `json:"margin"`
	// EntropyBits is the posterior Shannon entropy in bits.
	EntropyBits float64 `json:"entropy_bits"`
	// Rank is the 1-based rank of the true value in the posterior
	// (1 = classified correctly; len(posterior)+1 = not a candidate).
	Rank int `json:"rank"`
}

// boundedBuffer is a mutex-guarded fixed-capacity event store. Once full,
// new events are counted as dropped instead of growing the buffer, keeping
// long campaigns at bounded memory while the aggregate metrics keep
// counting. In ring mode (used by the long-lived daemon) the oldest events
// are overwritten instead, so recent activity is always retained.
type boundedBuffer[T any] struct {
	mu      sync.Mutex
	events  []T
	cap     int
	ring    bool
	head    int // ring mode: index of the oldest event
	dropped int64
}

func newBoundedBuffer[T any](capacity int) *boundedBuffer[T] {
	if capacity <= 0 {
		return nil
	}
	return &boundedBuffer[T]{cap: capacity}
}

// setRing selects overwrite-oldest semantics. Must be called before the
// first add (New does, right after construction).
func (b *boundedBuffer[T]) setRing(ring bool) {
	if b != nil {
		b.ring = ring
	}
}

func (b *boundedBuffer[T]) add(ev T) {
	if b == nil {
		return
	}
	b.mu.Lock()
	switch {
	case len(b.events) < b.cap:
		b.events = append(b.events, ev)
	case b.ring:
		b.events[b.head] = ev
		b.head = (b.head + 1) % b.cap
		b.dropped++
	default:
		b.dropped++
	}
	b.mu.Unlock()
}

// snapshot copies the buffered events (oldest first) and the drop count.
func (b *boundedBuffer[T]) snapshot() ([]T, int64) {
	if b == nil {
		return nil, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head == 0 {
		return append([]T(nil), b.events...), b.dropped
	}
	out := make([]T, 0, len(b.events))
	out = append(out, b.events[b.head:]...)
	out = append(out, b.events[:b.head]...)
	return out, b.dropped
}

// TracingEnabled reports whether the recorder buffers span trace events.
func (r *Recorder) TracingEnabled() bool { return r != nil && r.spanEvents != nil }

// CoeffJournalEnabled reports whether the recorder journals per-coefficient
// events.
func (r *Recorder) CoeffJournalEnabled() bool { return r != nil && r.coeffEvents != nil }

// TraceEvents returns a copy of the buffered trace events plus the number
// dropped once the buffer filled.
func (r *Recorder) TraceEvents() ([]TraceEvent, int64) {
	if r == nil {
		return nil, 0
	}
	return r.spanEvents.snapshot()
}

// CoeffEvents returns a copy of the journaled coefficient events plus the
// number dropped once the buffer filled.
func (r *Recorder) CoeffEvents() ([]CoeffEvent, int64) {
	if r == nil {
		return nil, 0
	}
	return r.coeffEvents.snapshot()
}

// Instant records a zero-duration marker in the trace stream (e.g. a
// template-health warning), visible as an instant event in Perfetto.
func (r *Recorder) Instant(name string, args map[string]any) {
	if r == nil || r.spanEvents == nil {
		return
	}
	r.spanEvents.add(TraceEvent{
		Name: name, Cat: "marker", Phase: "i", Scope: "t",
		TS: r.Uptime().Seconds() * 1e6, PID: 1, TID: 1, Args: args,
	})
}

// Flow phases of the Chrome trace_event format: a flow is a sequence of
// s (start) → t (step)* → f (end) events sharing one cat/name/id, rendered
// by Perfetto as arrows across threads and processes. The campaign path
// emits one flow per trace ID tying HTTP accept → queue wait → attempts →
// pipeline stages together.
const (
	FlowStart = "s"
	FlowStep  = "t"
	FlowEnd   = "f"
)

// flowCategory/flowName are the fixed binding of campaign flow events.
const (
	flowCategory = "flow"
	flowName     = "campaign"
)

// FlowEvent records one flow-graph node for the given trace ID. phase is
// FlowStart/FlowStep/FlowEnd, step names the node ("http_accept",
// "queue_wait", "attempt", …), and args carries attributes (job id, state).
// No-op when tracing is disabled or the trace ID is empty.
func (r *Recorder) FlowEvent(traceID, phase, step string, args map[string]any) {
	if r == nil || r.spanEvents == nil || traceID == "" {
		return
	}
	if args == nil {
		args = map[string]any{}
	}
	args["step"] = step
	args["trace_id"] = traceID
	r.spanEvents.add(TraceEvent{
		Name: flowName, Cat: flowCategory, Phase: phase, ID: traceID,
		TS: r.Uptime().Seconds() * 1e6, PID: 1, TID: 1, Args: args,
	})
}

// FlowEvent records a campaign flow node on the global recorder.
func FlowEvent(traceID, phase, step string, args map[string]any) {
	Global().FlowEvent(traceID, phase, step, args)
}

// TraceEventsFor returns the buffered events belonging to one trace: flow
// events bound to the ID plus spans stamped with a matching trace_id arg.
func (r *Recorder) TraceEventsFor(traceID string) []TraceEvent {
	if r == nil || traceID == "" {
		return nil
	}
	events, _ := r.spanEvents.snapshot()
	var out []TraceEvent
	for _, ev := range events {
		if ev.ID == traceID {
			out = append(out, ev)
			continue
		}
		if id, ok := ev.Args["trace_id"].(string); ok && id == traceID {
			out = append(out, ev)
		}
	}
	return out
}

// WriteTraceJSONFor renders one trace's events (flow nodes plus stamped
// spans) as a standalone Chrome trace_event document — the per-job
// trace.json the campaign runner archives next to the job manifest.
func (r *Recorder) WriteTraceJSONFor(w io.Writer, traceID string) error {
	events := r.TraceEventsFor(traceID)
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	all := make([]TraceEvent, 0, len(events)+1)
	all = append(all, TraceEvent{
		Name: "process_name", Phase: "M", PID: 1, TID: 1,
		Args: map[string]any{"name": "reveald"},
	})
	all = append(all, events...)
	doc := chromeTrace{
		TraceEvents:     all,
		DisplayTimeUnit: "ms",
		Metadata:        map[string]any{"trace_id": traceID},
	}
	return json.NewEncoder(w).Encode(doc)
}

// RecordCoeff records one per-coefficient classification outcome: aggregate
// metrics always (when a recorder is installed), the JSONL journal entry
// when the bounded buffer is enabled. Nil-safe no-op.
func (r *Recorder) RecordCoeff(ev CoeffEvent) {
	if r == nil {
		return
	}
	reg := r.registry
	reg.Counter(MetricCoeffEvents).Inc()
	if ev.Correct {
		reg.Counter(MetricCoeffCorrect).Inc()
	}
	reg.Histogram(MetricCoeffMargin).Observe(ev.Margin)
	reg.Histogram(MetricCoeffEntropy).Observe(ev.EntropyBits)
	reg.Histogram(MetricCoeffRank).Observe(float64(ev.Rank))
	r.coeffEvents.add(ev)
}

// PosteriorStats derives the CoeffEvent quality fields from a posterior
// row (probs[i] is the probability of labels[i], labels ascending): the
// top-two margin, the Shannon entropy in bits, summed in label order, and
// the 1-based rank of trueValue (len(labels)+1 when it is not a label).
func PosteriorStats(labels []int, probs []float64, trueValue int) (margin, entropyBits float64, rank int) {
	top1, top2 := math.Inf(-1), math.Inf(-1)
	ti, hasTrue := slices.BinarySearch(labels, trueValue)
	rank = 1
	for _, p := range probs {
		if p > top1 {
			top1, top2 = p, top1
		} else if p > top2 {
			top2 = p
		}
		if p > 0 {
			entropyBits -= p * math.Log2(p)
		}
		if hasTrue && p > probs[ti] {
			rank++
		}
	}
	if !hasTrue {
		rank = len(labels) + 1
	}
	switch {
	case math.IsInf(top1, -1):
		margin = 0
	case math.IsInf(top2, -1):
		margin = top1
	default:
		margin = top1 - top2
	}
	return margin, entropyBits, rank
}

// chromeTrace is the JSON-object form of the Chrome trace format.
type chromeTrace struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// WriteTraceJSON renders the buffered span events as Chrome trace_event
// JSON (the run directory's trace.json), sorted by start timestamp, with a
// process-name metadata record and the drop count in the metadata block.
func (r *Recorder) WriteTraceJSON(w io.Writer) error {
	events, dropped := r.TraceEvents()
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	all := make([]TraceEvent, 0, len(events)+1)
	all = append(all, TraceEvent{
		Name: "process_name", Phase: "M", PID: 1, TID: 1,
		Args: map[string]any{"name": "reveal"},
	})
	all = append(all, events...)
	doc := chromeTrace{TraceEvents: all, DisplayTimeUnit: "ms"}
	if dropped > 0 {
		doc.Metadata = map[string]any{"dropped_events": dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteCoeffsJSONL writes the journaled per-coefficient events as JSON
// Lines (the run directory's coeffs.jsonl), one event per line.
func (r *Recorder) WriteCoeffsJSONL(w io.Writer) error {
	events, dropped := r.CoeffEvents()
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if dropped > 0 {
		// Dropping past capacity is the bounded-memory contract, not a
		// write failure; the aggregate metrics still cover every event.
		r.Logger().Warn("coefficient journal dropped events past capacity",
			"dropped", dropped, "kept", len(events))
	}
	return nil
}
