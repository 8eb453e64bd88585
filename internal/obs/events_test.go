package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEventLogSequenceAndSince checks the cursor contract: Append assigns
// monotonically increasing sequence numbers, Since(after) returns only
// newer events oldest-first, and the returned cursor resumes exactly.
func TestEventLogSequenceAndSince(t *testing.T) {
	l := NewEventLog(64, nil)
	for i := 0; i < 5; i++ {
		ev := l.Append(ServiceEvent{Type: EventJobSubmitted, JobID: fmt.Sprintf("job-%d", i)})
		if ev.Seq != int64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, ev.Seq)
		}
		if ev.Time.IsZero() {
			t.Fatal("append did not stamp a timestamp")
		}
	}
	all, next := l.Since(0, 0)
	if len(all) != 5 || next != 5 {
		t.Fatalf("Since(0) = %d events, next %d; want 5, 5", len(all), next)
	}
	for i, ev := range all {
		if ev.Seq != int64(i+1) {
			t.Fatalf("Since returned out of order: %v", all)
		}
	}
	tail, next := l.Since(3, 0)
	if len(tail) != 2 || tail[0].Seq != 4 || next != 5 {
		t.Fatalf("Since(3) = %+v next %d, want seq 4,5 next 5", tail, next)
	}
	capped, next := l.Since(0, 2)
	if len(capped) != 2 || next != 2 {
		t.Fatalf("Since(0, max=2) = %d events next %d, want 2, 2", len(capped), next)
	}
	// Resuming from the capped cursor yields the remainder with no loss.
	rest, _ := l.Since(next, 0)
	if len(rest) != 3 || rest[0].Seq != 3 {
		t.Fatalf("resume after capped batch = %+v", rest)
	}
	if got, _ := l.Since(99, 0); len(got) != 0 {
		t.Fatalf("cursor ahead of log returned events: %+v", got)
	}
}

// TestEventLogRingOverwrite fills the ring past capacity: the oldest events
// are overwritten and a consumer resuming from an overwritten cursor sees
// the retained tail with a detectable Seq gap.
func TestEventLogRingOverwrite(t *testing.T) {
	l := NewEventLog(16, nil) // 16 is the minimum capacity
	for i := 0; i < 40; i++ {
		l.Append(ServiceEvent{Type: EventJobFinished})
	}
	events, next := l.Since(0, 256)
	if len(events) != 16 {
		t.Fatalf("ring retained %d events, want 16", len(events))
	}
	if events[0].Seq != 25 || events[15].Seq != 40 || next != 40 {
		t.Fatalf("ring window = seq %d..%d next %d, want 25..40 next 40",
			events[0].Seq, events[15].Seq, next)
	}
	if lastSeq(l) != 40 {
		t.Fatalf("LastSeq = %d, want 40", lastSeq(l))
	}
}

// TestEventLogWaitSince exercises the long-poll: a waiter parked on the
// current tail is woken by the next Append, and a context timeout returns
// empty-handed without advancing the cursor.
func TestEventLogWaitSince(t *testing.T) {
	l := NewEventLog(16, nil)
	l.Append(ServiceEvent{Type: EventJobSubmitted})

	type batch struct {
		events []ServiceEvent
		next   int64
	}
	got := make(chan batch, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		events, next := l.WaitSince(ctx, 1, 10)
		got <- batch{events, next}
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	l.Append(ServiceEvent{Type: EventJobClaimed, JobID: "job-1"})
	select {
	case b := <-got:
		if len(b.events) != 1 || b.events[0].Type != EventJobClaimed || b.next != 2 {
			t.Fatalf("woken waiter got %+v next %d", b.events, b.next)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Append did not wake the long-poller")
	}

	// Timeout path: nothing newer than the cursor arrives.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	events, next := l.WaitSince(ctx, lastSeq(l), 10)
	if len(events) != 0 || next != lastSeq(l) {
		t.Fatalf("timed-out wait returned %+v next %d", events, next)
	}
}

// gateWriter blocks every Write until released, simulating a stuck
// events.jsonl disk so the backpressure test can assert producers never
// block and losses are counted, not silent.
type gateWriter struct {
	release chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (w *gateWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestEventLogSinkBackpressure floods the journal while the sink writer is
// wedged: Append must stay non-blocking (the job queue calls it under its
// lock), the overflow must be counted, and after the writer recovers the
// written lines plus the drop counter must account for every event.
func TestEventLogSinkBackpressure(t *testing.T) {
	reg := NewRegistry()
	l := NewEventLog(64, reg)
	w := &gateWriter{release: make(chan struct{})}
	l.AttachSink(w)

	const total = 3000
	start := time.Now()
	for i := 0; i < total; i++ {
		l.Append(ServiceEvent{Type: EventJobSubmitted, JobID: fmt.Sprintf("job-%04d", i)})
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("appends blocked on a stuck sink: %v for %d events", elapsed, total)
	}
	dropped := l.SinkDropped()
	if dropped == 0 {
		t.Fatal("stuck sink dropped nothing after 3000 events (channel should hold ~1024)")
	}

	close(w.release) // the disk recovers
	l.CloseSink()    // drains the queued events, then stops

	w.mu.Lock()
	data := w.buf.Bytes()
	w.mu.Unlock()
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var ev ServiceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("sink line %d is not valid JSON: %v", lines+1, err)
		}
		lines++
	}
	if int64(lines)+dropped != total {
		t.Fatalf("written %d + dropped %d != %d appended", lines, dropped, total)
	}
	if got := reg.Counter(MetricServiceEvents).Value(); got != total {
		t.Fatalf("%s = %d, want %d", MetricServiceEvents, got, total)
	}
	if got := reg.Counter(MetricServiceEventsDropped).Value(); got != dropped {
		t.Fatalf("%s = %d, want %d", MetricServiceEventsDropped, got, dropped)
	}
}

// TestEventLogNilSafe checks a nil *EventLog ignores everything — the shape
// the whole service relies on when observability is disabled.
func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Append(ServiceEvent{Type: EventDrainStarted})
	if ev, next := l.Since(0, 10); ev != nil || next != 0 {
		t.Fatalf("nil Since = %v, %d", ev, next)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if ev, next := l.WaitSince(ctx, 5, 10); ev != nil || next != 5 {
		t.Fatalf("nil WaitSince = %v, %d", ev, next)
	}
	if lastSeq(l) != 0 || l.SinkDropped() != 0 {
		t.Fatal("nil log reported nonzero state")
	}
	l.AttachSink(io.Discard)
	l.CloseSink()

	// A recorder without EventCapacity has no journal; Emit is a no-op.
	rec := New(Options{})
	if rec.Events() != nil {
		t.Fatal("recorder without EventCapacity exposed an event log")
	}
	rec.Emit(ServiceEvent{Type: EventCacheFill})
	var nilRec *Recorder
	nilRec.Emit(ServiceEvent{Type: EventCacheFill})
}

// TestTraceContextRoundTrip checks the context plumbing used to carry the
// request identity from the HTTP layer into the pipeline.
func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: "abc123", SpanID: "s1"}
	ctx := WithTraceContext(context.Background(), tc)
	if got := TraceContextFrom(ctx); got != tc {
		t.Fatalf("round trip = %+v, want %+v", got, tc)
	}
	if TraceIDFrom(ctx) != "abc123" {
		t.Fatalf("TraceIDFrom = %q", TraceIDFrom(ctx))
	}
	if got := TraceContextFrom(context.Background()); got.TraceID != "" {
		t.Fatalf("empty context carried a trace: %+v", got)
	}
	if TraceIDFrom(nil) != "" { //nolint:staticcheck // nil-safety is the contract
		t.Fatal("nil context returned a trace ID")
	}
}

// TestNewTraceID checks minted IDs are well-formed and unique.
func TestNewTraceID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if len(id) != 16 || !ValidTraceID(id) {
			t.Fatalf("minted ID %q is malformed", id)
		}
		if strings.ToLower(id) != id {
			t.Fatalf("minted ID %q is not lowercase hex", id)
		}
		if seen[id] {
			t.Fatalf("minted ID %q repeated", id)
		}
		seen[id] = true
	}
}

// TestValidTraceID pins the accepted charset for externally supplied IDs.
func TestValidTraceID(t *testing.T) {
	cases := []struct {
		id string
		ok bool
	}{
		{"abc123", true},
		{"Trace-ID_1.2", true},
		{strings.Repeat("a", 64), true},
		{"", false},
		{strings.Repeat("a", 65), false},
		{"has space", false},
		{"semi;colon", false},
		{"newline\n", false},
		{`quote"`, false},
	}
	for _, c := range cases {
		if got := ValidTraceID(c.id); got != c.ok {
			t.Errorf("ValidTraceID(%q) = %v, want %v", c.id, got, c.ok)
		}
	}
}

// lastSeq returns the most recently assigned sequence number of l.
func lastSeq(l *EventLog) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}
