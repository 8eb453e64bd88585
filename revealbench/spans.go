package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// rootSpan names the span that covers one whole op; time inside it that no
// layer span covers is unattributed.
const rootSpan = "op"

// span is one timed call the benchmark made into a layer, or one interval
// the service reported for a campaign. Times are offsets from the
// recorder's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layer is the module a span's time is charged to: the part of its name
// before the first dot ("capture.iss" → "capture").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// spanRecorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// open starts a span now and returns its ID; close ends it.
func (r *spanRecorder) open(op, parent int, name string) int {
	return r.add(op, parent, name, time.Now(), time.Time{})
}

func (r *spanRecorder) close(id int) {
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// add records a span with known bounds; a zero end leaves it open.
func (r *spanRecorder) add(op, parent int, name string, start, end time.Time) int {
	s := span{Parent: parent, Op: op, Name: name, Start: start.Sub(r.epoch)}
	if !end.IsZero() {
		s.End = end.Sub(r.epoch)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return s.ID
}

// timed runs f inside a span.
func (r *spanRecorder) timed(op, parent int, name string, f func() error) error {
	id := r.open(op, parent, name)
	err := f()
	r.close(id)
	return err
}

// snapshot returns a copy of every recorded span.
func (r *spanRecorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes one span per line to path as JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes attributes every instant of each root span to exactly one span:
// the deepest span covering it, and among equally deep ones the one that
// started last. For strictly nested sequential calls this is the usual
// duration minus children; where sibling spans overlap (a status poll
// during a campaign's run) the instant is charged once, never twice, so the
// self times of one op always sum to the op's duration. Children are
// clipped to their root. The result is indexed by span position.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	depth := make([]int, len(spans))
	root := make([]int, len(spans))
	for i := range spans {
		j := i
		for spans[j].Parent >= 0 {
			depth[i]++
			j = pos[spans[j].Parent]
		}
		root[i] = j
	}
	byRoot := map[int][]int{}
	for i := range spans {
		byRoot[root[i]] = append(byRoot[root[i]], i)
	}
	for r, members := range byRoot {
		lo, hi := spans[r].Start, spans[r].End
		var cuts []time.Duration
		for _, i := range members {
			for _, t := range []time.Duration{spans[i].Start, spans[i].End} {
				if t >= lo && t <= hi {
					cuts = append(cuts, t)
				}
			}
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		for k := 0; k+1 < len(cuts); k++ {
			a, b := cuts[k], cuts[k+1]
			if a == b {
				continue
			}
			owner := -1
			for _, i := range members {
				if spans[i].Start > a || spans[i].End < b {
					continue
				}
				if owner < 0 || depth[i] > depth[owner] ||
					(depth[i] == depth[owner] && spans[i].Start > spans[owner].Start) {
					owner = i
				}
			}
			self[owner] += b - a
		}
	}
	return self
}

// layerRow is one line of a workload's self-time table.
type layerRow struct {
	Layer string
	// Total is the layer's self time summed over every traced op.
	Total time.Duration
	// Share is Total ÷ the summed duration of the traced ops.
	Share float64
}

// layerTable charges each span's self time to its layer. Root spans are
// charged to "unattributed". It returns the rows sorted by share, largest
// first, and the summed op time they are shares of.
func layerTable(spans []span) ([]layerRow, time.Duration) {
	self := selfTimes(spans)
	totals := map[string]time.Duration{}
	var opTime time.Duration
	for i, s := range spans {
		name := s.layer()
		if s.Parent < 0 {
			opTime += s.End - s.Start
			name = "unattributed"
		}
		totals[name] += self[i]
	}
	rows := make([]layerRow, 0, len(totals))
	for name, t := range totals {
		row := layerRow{Layer: name, Total: t}
		if opTime > 0 {
			row.Share = float64(t) / float64(opTime)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Share != rows[b].Share {
			return rows[a].Share > rows[b].Share
		}
		return rows[a].Layer < rows[b].Layer
	})
	return rows, opTime
}

// share returns the named layer's share from a table (0 when absent).
func share(rows []layerRow, layer string) float64 {
	for _, r := range rows {
		if r.Layer == layer {
			return r.Share
		}
	}
	return 0
}

// durations returns the duration in seconds of every span with the given
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// perOpLayer returns, for every root span, the self time in seconds of the
// named layer's spans under it (0 where it has none).
func perOpLayer(spans []span, self []time.Duration, layer string) []float64 {
	byOp := map[int]float64{}
	for i, s := range spans {
		if s.Parent >= 0 && s.layer() == layer {
			byOp[s.Op] += self[i].Seconds()
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Parent < 0 {
			out = append(out, byOp[s.Op])
		}
	}
	return out
}
