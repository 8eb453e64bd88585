// Command revealbench is the repository benchmark: it runs one workload
// (table1, recover or service-stream, or all of them) on a fixed fixture for
// a set time, checks every output, prints every metric by name with its
// unit, and ends with one JSON result line. See README.md.
//
// Usage:
//
//	revealbench --workload table1|recover|service-stream|all --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workDir holds the spans a traced run writes and the service's data
// directories, relative to the directory the benchmark runs from.
var workDir = filepath.Join(".bench_build", "revealbench")

// How many times a run sets its fixture up; setup_s is the median.
const (
	batchSetupReps   = 5
	serviceSetupReps = 3
)

var workloadNames = []string{"table1", "recover", "service-stream"}

func main() {
	ok, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "revealbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(args []string) (bool, error) {
	fs := flag.NewFlagSet("revealbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "table1, recover, service-stream, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !validWorkload(n) {
			return false, fmt.Errorf("unknown workload %q (want one of %v or all)", n, workloadNames)
		}
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return false, fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return false, err
	}
	d := time.Duration(*seconds) * time.Second
	var reps []*report
	for _, n := range names {
		rep, err := runWorkload(context.Background(), n, *seed, d, *traced == 1)
		if err != nil {
			return false, fmt.Errorf("workload %s: %w", n, err)
		}
		rep.print(os.Stdout)
		reps = append(reps, rep)
	}
	res := result(reps, len(names) > 1)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

func validWorkload(n string) bool {
	for _, w := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// result builds the final JSON line. With several workloads the metric
// names are prefixed with the workload's.
func result(reps []*report, prefix bool) resultLine {
	res := resultLine{Correct: true, Metrics: map[string]resultValue{}}
	for _, r := range reps {
		res.Correct = res.Correct && r.correct()
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, m := range r.metrics {
			name := m.Name
			if prefix {
				name = r.workload + "." + name
			}
			res.Metrics[name] = resultValue{m.Value, m.Unit}
		}
	}
	return res
}

func runWorkload(ctx context.Context, name string, seed uint64, d time.Duration, traced bool) (*report, error) {
	switch name {
	case "table1":
		return runBatch(ctx, name, table1Workload, seed, d, traced)
	case "recover":
		return runBatch(ctx, name, recoverWorkload, seed, d, traced)
	default:
		return runService(ctx, seed, d, traced)
	}
}

// spansPath is where a traced run writes its spans.
func spansPath(workload string, seed uint64) string {
	return filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}

func runBatch(ctx context.Context, name string, w batchWorkload, seed uint64, d time.Duration, traced bool) (*report, error) {
	var (
		fx        *batchFixture
		setup     setups
		profiling []float64
	)
	for k := 0; k < batchSetupReps; k++ {
		c := startClock()
		f, prof, err := newBatchFixture(w)
		if err != nil {
			return nil, err
		}
		setup.add(c)
		profiling = append(profiling, prof.Seconds())
		fx = f
	}
	heapMB := liveHeapMB()
	rep := &report{workload: name, traced: traced}
	if !traced {
		t := fx.measure(seed, d)
		rep.attempted, rep.failed, rep.failures = t.attempted, t.failed, t.failures
		rep.endToEnd(phaseFigures{
			latencies: t.latencies, tailP: w.tailP, wall: t.wall, cpu: t.cpu, setup: setup,
			correct: float64(t.correct), classified: float64(t.classified), heapMB: heapMB,
		})
		if w.recover {
			rep.addDetail("recovered_frac", "fraction", float64(t.recovered)/float64(len(t.latencies)),
				fmt.Sprintf("%d of %d encryptions recovered bit-exact", t.recovered, len(t.latencies)))
		}
		rep.addDetail("error_rate", "fraction", errorRate(t.attempted, t.failed), "")
		rep.setDigest(&t.digest, "ops")
		return rep, nil
	}
	ph := fx.measureTraced(ctx, seed, d)
	if err := writeSpans(spansPath(name, seed), ph.spans); err != nil {
		return nil, err
	}
	rep.batchLayers(w, ph, median(profiling))
	rep.notes = append(rep.notes, "spans written to "+spansPath(name, seed))
	return rep, nil
}

// setups collects the wall and process CPU time of each set-up of a run.
type setups struct{ wall, cpu []float64 }

func (s *setups) add(c clock) {
	wall, cpu := c.stop()
	s.wall = append(s.wall, wall.Seconds())
	s.cpu = append(s.cpu, cpu)
}

// phaseFigures are what a timed phase's end-to-end metrics come from.
type phaseFigures struct {
	latencies           []float64
	tailP               float64
	wall                time.Duration
	cpu                 float64
	setup               setups
	correct, classified float64
	heapMB              float64 // live heap once set up
}

// endToEnd adds the end-to-end metrics shared by every workload. The
// metrics BENCHMARK.json gates are CPU time, accuracy and the live heap of
// the set-up fixture; the wall-clock figures and peak RSS are printed beside
// them but not gated, because on a shared host wall time moves with the
// other guests' load and the RSS peak with the collector's timing (see
// README.md).
func (r *report) endToEnd(f phaseFigures) {
	ops := len(f.latencies)
	lat := summarizeLatency(f.latencies, f.tailP)
	r.add("setup_s", "s", median(f.setup.cpu),
		fmt.Sprintf("process CPU time, median of %d set-ups; wall median %.4f s", len(f.setup.cpu), median(f.setup.wall)))
	r.add("cpu_per_op_s", "s", f.cpu/float64(ops), fmt.Sprintf("process CPU %.3f s over %d ops", f.cpu, ops))
	r.add("value_acc", "fraction", f.correct/f.classified, fmt.Sprintf("%.0f of %.0f classified coefficients", f.correct, f.classified))
	r.add("heap_mb", "MB", f.heapMB, "live heap once set up, after a collection")
	r.addDetail("latency_p50_s", "s", lat.P50, fmt.Sprintf("wall clock, %d samples", lat.N))
	r.addDetail("latency_tail_s", "s", lat.Tail, fmt.Sprintf("wall clock, p%g of %d samples, %d beyond", 100*lat.TailP, lat.N, lat.TailBeyond))
	r.addDetail("ops_per_s", "ops/s", float64(ops)/f.wall.Seconds(), fmt.Sprintf("%d ops in %.3f s", ops, f.wall.Seconds()))
	r.addDetail("cpu_util", "fraction", f.cpu/f.wall.Seconds(), "process CPU time / wall time of the timed phase")
	r.addDetail("max_rss_mb", "MB", maxRSSMB(), "peak resident memory of this process")
}

// setDigest records output_digest and the op prefix it covers.
func (r *report) setDigest(d *outputDigest, what string) {
	var n int
	r.digest, n = d.sum()
	r.notes = append(r.notes, fmt.Sprintf("output_digest covers %s 0..%d", what, n-1))
}

// batchLayers adds the per-layer metrics of a traced table1 or recover run.
func (r *report) batchLayers(w batchWorkload, ph *tracedPhase, profile float64) {
	t := ph.product
	r.attempted, r.failed, r.failures = t.attempted, t.failed, t.failures
	spans := ph.spans
	self := selfTimes(spans)
	rows, _ := layerTable(spans)
	ops := durations(spans, rootSpan)
	n := float64(t.classified) / float64(max(len(t.latencies), 1)) // coefficients per op
	classifySelf := sum(perOpLayer(spans, self, "classify"))

	r.add("op_s", "s", median(ops), fmt.Sprintf("traced op p50 over %d ops; base of the *_frac shares", len(ops)))
	r.add("capture.s", "s", median(perOpLayer(spans, self, "capture")), "encrypt + firmware + 2 ISS captures, p50 per op")
	r.add("capture.frac", "fraction", share(rows, "capture"), "")
	r.add("classify.coeffs", "count", n, "coefficients classified per op")
	r.add("classify.coeffs_per_s", "1/s", n*float64(len(ops))/classifySelf, "")
	r.add("classify.frac", "fraction", share(rows, "classify"), "")
	r.add("profile.s", "s", profile, "core.Profile at set-up, median")
	r.add("unattributed_frac", "fraction", share(rows, "unattributed"), "1 - sum of layer self time / op time")
	r.add("trace_overhead_frac", "fraction", median(ops)/median(t.latencies)-1,
		fmt.Sprintf("traced p50 %.6f s vs untraced p50 %.6f s of the same ops", median(ops), median(t.latencies)))

	r.addDetail("capture.encrypt_s", "s", median(durations(spans, "capture.encrypt")), "EncryptWithTranscript")
	r.addDetail("capture.iss_s", "s", median(durations(spans, "capture.iss")), "Device.Capture, per trace")
	r.addDetail("capture.samples", "count", median(t.samples), "trace samples per op, e1 + e2")
	r.addDetail("segment.s", "s", median(durations(spans, "segment")), "Segmenter.Segment, per poly")
	r.addDetail("classify.s", "s", median(durations(spans, "classify")), "AttackSegmentsCtx, per poly")
	if w.recover {
		rec := durations(spans, "recover")
		r.addDetail("dbdd.estimate_s", "s", median(durations(spans, "dbdd.estimate")), "EstimateFullHints")
		r.addDetail("dbdd.hinted_bikz", "bikz", median(t.bikz), "reported, not gated")
		r.addDetail("recover.s", "s", median(rec), "RepairAndRecover, p50 per op")
		r.addDetail("recover.trials", "count", float64(t.trials)/float64(len(t.latencies)), "mean per op, exact over whole passes")
		r.addDetail("recover.trial_s", "s", sum(rec)/float64(t.trials), "recover time / trials")
		r.addDetail("recovered_frac", "fraction", float64(t.recovered)/float64(len(t.latencies)), "")
	}
	r.addDetail("error_rate", "fraction", errorRate(t.attempted, t.failed), "")
	r.layerReport(rows)
	r.notes = append(r.notes, fmt.Sprintf("composition check: %d of %d traced ops digest-identical to the product path",
		ph.pairs-ph.mismatch, ph.pairs))
	switch {
	case len(rows) == 0:
	case w.recover:
		largest := rows[0].Layer
		r.predict("recover is the largest layer", largest == "recover", "largest: "+largest)
	default:
		cc := share(rows, "capture") + share(rows, "classify")
		r.predict("capture + classify >= 90% of op time", cc >= 0.90, fmt.Sprintf("%.4f", cc))
	}
	r.setDigest(&t.digest, "ops")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func runService(ctx context.Context, seed uint64, d time.Duration, traced bool) (*report, error) {
	var (
		dep   *deployment
		setup setups
	)
	base := filepath.Join(workDir, fmt.Sprintf("service-%d", os.Getpid()))
	defer os.RemoveAll(base)
	for k := 0; k < serviceSetupReps; k++ {
		if dep != nil {
			if err := dep.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up %d: %w", k, err)
			}
		}
		c := startClock()
		var err error
		if dep, err = startDeployment(ctx, filepath.Join(base, fmt.Sprint(k))); err != nil {
			return nil, err
		}
		setup.add(c)
	}
	heapMB := liveHeapMB()
	t, spans := dep.measureService(ctx, seed, d, traced)
	if err := dep.stop(); err != nil {
		return nil, fmt.Errorf("stopping the service: %w", err)
	}
	rep := &report{workload: "service-stream", traced: traced}
	rep.attempted, rep.failed, rep.failures = t.attempted, t.failed, t.failures
	if !traced {
		rep.endToEnd(phaseFigures{
			latencies: t.latencies, tailP: serviceTailP, wall: t.wall, cpu: t.cpu, setup: setup,
			correct: t.correct, classified: float64(t.classified), heapMB: heapMB,
		})
		rep.addDetail("template.hit_frac", "fraction", float64(t.hits)/float64(len(t.outcomes)), "")
		rep.addDetail("error_rate", "fraction", errorRate(t.attempted, t.failed), "")
	} else {
		if err := writeSpans(spansPath("service-stream", seed), spans); err != nil {
			return nil, err
		}
		rep.serviceLayers(t, spans, median(dep.profile))
		rep.notes = append(rep.notes, "spans written to "+spansPath("service-stream", seed))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("early-exit target %.4f bikz (%.2f x the no-hint baseline)", dep.target, serviceTargetRatio))
	rep.setDigest(&t.digest, "campaigns")
	return rep, nil
}

// serviceLayers adds the per-layer metrics of a traced service-stream run.
func (r *report) serviceLayers(t *serviceTally, spans []span, profile float64) {
	self := selfTimes(spans)
	rows, _ := layerTable(spans)
	ops := durations(spans, rootSpan)
	var ttfh, ttv, classified, submit, wait, run, polls, overhead, missProfile []float64
	for _, c := range t.outcomes {
		if len(c.res.Runs) != 1 {
			continue
		}
		rr := c.res.Runs[0]
		ttfh = append(ttfh, rr.TTFHSeconds)
		ttv = append(ttv, rr.TTVSeconds)
		classified = append(classified, float64(rr.Classified))
		submit = append(submit, c.submit.Seconds())
		wait = append(wait, c.status.QueueWaitSeconds)
		run = append(run, c.status.RunSeconds)
		polls = append(polls, float64(c.polls))
		overhead = append(overhead, c.latency.Seconds()-c.status.RunSeconds)
		if !c.res.CacheHit {
			missProfile = append(missProfile, c.res.ProfileSeconds)
		}
	}
	r.add("op_s", "s", median(ops), fmt.Sprintf("traced campaign p50 over %d campaigns; base of the *_frac shares", len(ops)))
	r.add("capture.s", "s", median(perOpLayer(spans, self, "capture")), "stream_seconds - time to verdict: keygen + capture + RVTS encoding, p50")
	r.add("capture.frac", "fraction", share(rows, "capture"), "")
	r.add("classify.coeffs", "count", median(classified), "coefficients classified per campaign before the early exit")
	r.add("classify.coeffs_per_s", "1/s", sum(classified)/sum(ttv), "classified / stream time to verdict (includes the DBDD checks)")
	r.add("classify.frac", "fraction", share(rows, "stream"), "stream engine share: classification plus its DBDD early-exit checks")
	r.add("profile.s", "s", profile, "profile_seconds of the warm-up campaigns, median")
	r.add("unattributed_frac", "fraction", share(rows, "unattributed"), "1 - sum of layer self time / op time")
	r.add("trace_overhead_frac", "fraction", median(t.traced)/median(t.untraced)-1,
		fmt.Sprintf("p50 of %d traced vs %d untraced campaigns", len(t.traced), len(t.untraced)))

	r.addDetail("stream.ttfh_s", "s", median(ttfh), "time to first hint")
	r.addDetail("stream.ttv_s", "s", median(ttv), "time to verdict")
	r.addDetail("stream.classified", "count", median(classified), "")
	r.addDetail("service.submit_s", "s", median(submit), "Client.Submit round trip, WAL fsync included")
	r.addDetail("service.queue_wait_s", "s", median(wait), "jobs.Status")
	r.addDetail("service.run_s", "s", median(run), "jobs.Status")
	r.addDetail("service.polls", "count", median(polls), "status polls per campaign")
	r.addDetail("service.overhead_s", "s", median(overhead), "latency - run_s")
	r.addDetail("template.hit_frac", "fraction", float64(t.hits)/float64(len(t.outcomes)), "")
	r.addDetail("template.profile_s", "s", median(missProfile), fmt.Sprintf("profile_seconds over %d misses", len(missProfile)))
	r.addDetail("error_rate", "fraction", errorRate(t.attempted, t.failed), "")
	r.layerReport(rows)
	if len(rows) < 2 {
		return
	}
	r.predict("capture and service are the two largest layers",
		(rows[0].Layer == "capture" && rows[1].Layer == "service") || (rows[0].Layer == "service" && rows[1].Layer == "capture"),
		fmt.Sprintf("largest: %s, %s", rows[0].Layer, rows[1].Layer))
	stream := share(rows, "stream")
	r.predict("classify (stream engine) < 15% of campaign time", stream < 0.15, fmt.Sprintf("%.4f", stream))
}
