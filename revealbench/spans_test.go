package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimesNested(t *testing.T) {
	// op [0,100]: a [10,40] with child a.x [20,30], b [50,90].
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Op: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 1, Op: 1, Name: "a.x", Start: ms(20), End: ms(30)},
		{ID: 3, Parent: 0, Op: 1, Name: "b", Start: ms(50), End: ms(90)},
	}
	want := []time.Duration{ms(30), ms(20), ms(10), ms(40)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	rows, opTime := layerTable(spans)
	if opTime != ms(100) {
		t.Fatalf("op time %v, want 100ms", opTime)
	}
	for layer, w := range map[string]float64{"a": 0.3, "b": 0.4, "unattributed": 0.3} {
		if s := share(rows, layer); s != w {
			t.Errorf("share(%s) = %v, want %v", layer, s, w)
		}
	}
}

func TestSelfTimesOverlapChargedOnce(t *testing.T) {
	// Siblings overlap (a poll during a run) and a child pokes out of its
	// op: every instant is charged once and the op's self times sum to its
	// duration.
	spans := []span{
		{ID: 0, Parent: -1, Op: 7, Name: "op", Start: ms(0), End: ms(50)},
		{ID: 1, Parent: 0, Op: 7, Name: "service.run", Start: ms(5), End: ms(40)},
		{ID: 2, Parent: 0, Op: 7, Name: "service.poll", Start: ms(30), End: ms(45)},
		{ID: 3, Parent: 1, Op: 7, Name: "stream", Start: ms(10), End: ms(20)},
		{ID: 4, Parent: 0, Op: 7, Name: "service.submit", Start: ms(-5), End: ms(3)},
		// A second op's spans stay with their own root.
		{ID: 5, Parent: -1, Op: 8, Name: "op", Start: ms(0), End: ms(10)},
		{ID: 6, Parent: 5, Op: 8, Name: "capture", Start: ms(0), End: ms(10)},
	}
	self := selfTimes(spans)
	var total time.Duration
	for i, s := range spans {
		if s.Op == 7 {
			total += self[i]
		}
	}
	if total != ms(50) {
		t.Errorf("op 7 self times sum to %v, want 50ms", total)
	}
	// run: [5,10)+[20,30) = 15ms; the later-started poll owns [30,45).
	for i, want := range map[int]time.Duration{1: ms(15), 2: ms(15), 3: ms(10), 4: ms(3), 0: ms(7), 5: 0, 6: ms(10)} {
		if self[i] != want {
			t.Errorf("self[%d %s] = %v, want %v", i, spans[i].Name, self[i], want)
		}
	}
	if got := perOpLayer(spans, self, "service"); len(got) != 2 || got[0] != 0.033 || got[1] != 0 {
		t.Errorf("perOpLayer(service) = %v, want [0.033 0]", got)
	}
}

func TestSpanRecorderNesting(t *testing.T) {
	r := newSpanRecorder()
	root := r.open(3, -1, rootSpan)
	if err := r.timed(3, root, "classify", func() error { time.Sleep(time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	r.close(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 3 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].End-spans[1].Start < time.Millisecond || spans[0].End < spans[1].End {
		t.Errorf("span bounds do not nest: %+v", spans)
	}
}
