package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one named figure of a workload report.
type metric struct {
	Name, Unit string
	Value      float64
	Note       string
}

// report is what one workload run prints.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	failures  []string
	// metrics are the BENCHMARK.json metrics of the run's mode; detail
	// holds the figures that are printed but not part of the result object.
	metrics []metric
	detail  []metric
	notes   []string
	digest  string
	// bad is set when a figure could not be computed.
	bad bool
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name, unit, r.finite(name, v), note})
}

func (r *report) addDetail(name, unit string, v float64, note string) {
	r.detail = append(r.detail, metric{name, unit, v, note})
}

func (r *report) finite(name string, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.bad = true
		r.notes = append(r.notes, fmt.Sprintf("metric %s could not be computed", name))
		return 0
	}
	return v
}

func (r *report) correct() bool { return r.failed == 0 && !r.bad && r.attempted > 0 }

// print writes the human-readable report: every figure by name with its
// unit, the checks and the notes.
func (r *report) print(w io.Writer) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== workload %s (%s run)\n", r.workload, mode)
	for _, m := range append(append([]metric(nil), r.metrics...), r.detail...) {
		line := fmt.Sprintf("metric %-26s %.6g %s", m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d, error_rate %g fraction\n", r.attempted, r.failed, errorRate(r.attempted, r.failed))
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	fmt.Fprintf(w, "output_digest %s\n", r.digest)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
}

func errorRate(attempted, failed int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// outputDigest is a SHA-256 over one line per op of a fixed op prefix, in
// op order: the op's result digest, its verdict and its classified count.
type outputDigest struct {
	mu    sync.Mutex
	lines map[int]string
}

func (d *outputDigest) add(op int, digest, verdict string, classified int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lines == nil {
		d.lines = map[int]string{}
	}
	d.lines[op] = fmt.Sprintf("%d %s %s classified=%d\n", op, digest, verdict, classified)
}

// sum returns the hex digest and how many ops it covers.
func (d *outputDigest) sum() (string, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ops := make([]int, 0, len(d.lines))
	for op := range d.lines {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	var b strings.Builder
	for _, op := range ops {
		b.WriteString(d.lines[op])
	}
	s := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(s[:]), len(ops)
}

// maxRSSMB is the process's peak resident memory in MB (ru_maxrss is in
// KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the CPU time, user plus system, all threads of the process
// have used. Unlike wall time it does not grow while the host runs other
// guests on this machine's CPUs.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// clock times a phase in wall and process CPU time.
type clock struct {
	wall time.Time
	cpu  float64
}

func startClock() clock { return clock{time.Now(), cpuSeconds()} }

func (c clock) stop() (wall time.Duration, cpu float64) {
	return time.Since(c.wall), cpuSeconds() - c.cpu
}

// liveHeapMB collects garbage and returns the bytes of heap objects still
// reachable, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// layerReport adds a traced run's self-time table to the notes.
func (r *report) layerReport(rows []layerRow) {
	for _, row := range rows {
		r.notes = append(r.notes, fmt.Sprintf("layer %-13s self %8.3f s  share %.4f", row.Layer, row.Total.Seconds(), row.Share))
	}
}

// predict records whether a stated prediction held.
func (r *report) predict(claim string, held bool, measured string) {
	verdict := "confirmed"
	if !held {
		verdict = "NOT confirmed"
	}
	r.notes = append(r.notes, fmt.Sprintf("prediction %s: %s (%s)", claim, verdict, measured))
}
