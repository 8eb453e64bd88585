package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/jobs/wal"
	"reveal/internal/obs"
	"reveal/internal/obs/history"
	"reveal/internal/service"
)

const (
	// The deployment: reveald's -workers 2 -classify-workers 1. -cache is 8
	// rather than reveald's 4 so that fresh-seed templates never evict a
	// warm seed's (3 warm seeds, at most 2 fresh inserts between two uses
	// of one warm seed).
	servicePoolWorkers     = 2
	serviceClassifyWorkers = 1
	serviceCacheCapacity   = 8
	// serviceSubmitters is the closed loop's client count.
	serviceSubmitters = 2
	// servicePollInterval is the pause between status polls.
	servicePollInterval = 2 * time.Millisecond
	// serviceTargetRatio sets the early-exit target as a share of the
	// no-hint baseline bikz (330 of ≈347 in the CI stream smoke).
	serviceTargetRatio = 0.95
	// serviceTailP is the planned latency_tail_s rung: ≈1000 campaigns in
	// 20 s leave ≈50 beyond p95, while p99 would sit at the 10-sample edge.
	serviceTailP = 0.95
	// serviceDigestOps is how many leading campaigns output_digest covers.
	serviceDigestOps = 16
)

// deployment is an in-process reveald: service.New with a data dir, a
// SyncSubmits WAL, a history store and drift watchdog, and an events
// journal, wired as cmd/reveald wires them, behind an httptest listener
// with reveald's HTTP instrumentation.
type deployment struct {
	rec     *obs.Recorder
	prev    *obs.Recorder
	events  *os.File
	hist    *history.Store
	wal     *wal.Log
	svc     *service.Server
	http    *httptest.Server
	client  *service.Client
	target  float64
	profile []float64 // profile_seconds of the warm-up campaigns
}

// startDeployment starts a service in dir, computes the early-exit target
// and warms the template cache with the warm seeds.
func startDeployment(ctx context.Context, dir string) (d *deployment, err error) {
	d = &deployment{prev: obs.Global()}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	d.rec = obs.New(obs.Options{
		Logger:        obs.NewLogger(obs.LogOptions{Level: obs.ParseLevel("info"), Output: io.Discard}),
		TraceCapacity: obs.DefaultTraceCapacity,
		TraceRing:     true,
		EventCapacity: 4096,
	})
	obs.SetGlobal(d.rec)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return d, err
	}
	if d.events, err = os.OpenFile(filepath.Join(dir, "events.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return d, err
	}
	d.rec.Events().AttachSink(d.events)
	histDir := filepath.Join(dir, "history")
	if d.hist, err = history.Open(history.Options{Dir: histDir}); err != nil {
		return d, err
	}
	wd, err := history.NewWatchdog(history.DriftConfig{
		Window: 8, MinRuns: 4, Tolerance: 0.05,
		BaselinePath: filepath.Join(histDir, "baselines.json"),
		Registry:     d.rec.Registry(),
		Emit:         obs.Emit,
	})
	if err != nil {
		return d, err
	}
	var replay *wal.Replay
	if d.wal, replay, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), SyncSubmits: true}); err != nil {
		return d, err
	}
	d.svc = service.New(service.Config{
		QueueOptions: jobs.Options{
			MaxAttempts: 3,
			BackoffBase: 500 * time.Millisecond,
			BackoffMax:  60 * time.Second,
			Capacity:    64,
			WAL:         d.wal,
		},
		PoolWorkers:     servicePoolWorkers,
		ClassifyWorkers: serviceClassifyWorkers,
		CacheCapacity:   serviceCacheCapacity,
		DataDir:         dir,
		History:         d.hist,
		Watchdog:        wd,
		LeaseTTL:        jobs.DefaultLeaseTTL,
	})
	d.svc.Queue().Restore(replay, service.DecodeCampaignPayload)
	d.http = httptest.NewServer(obs.InstrumentHandler(d.rec, service.RouteLabel, d.svc.Handler()))
	d.svc.Start()
	d.client = service.NewClient(d.http.URL)

	in, err := core.LWEInstanceForParams(bfv.PaperParameters())
	if err != nil {
		return d, err
	}
	base, err := in.EstimateBikz()
	if err != nil {
		return d, err
	}
	d.target = serviceTargetRatio * base
	for _, seed := range serviceWarmSeeds {
		c, err := d.campaign(ctx, seed, nil, 0)
		if err != nil {
			return d, fmt.Errorf("warm-up campaign %d: %w", seed, err)
		}
		if c.res.CacheHit {
			return d, fmt.Errorf("warm-up campaign %d hit the template cache", seed)
		}
		d.profile = append(d.profile, c.res.ProfileSeconds)
	}
	return d, nil
}

// stop drains the service and closes everything startDeployment opened.
func (d *deployment) stop() error {
	var errs []error
	if d.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, d.svc.Shutdown(ctx))
		cancel()
	}
	if d.http != nil {
		d.http.Close()
	}
	if d.wal != nil {
		errs = append(errs, d.wal.Close())
	}
	if d.hist != nil {
		errs = append(errs, d.hist.Close())
	}
	if d.events != nil {
		d.rec.Events().CloseSink()
		errs = append(errs, d.events.Close())
	}
	obs.SetGlobal(d.prev)
	return errors.Join(errs...)
}

// campaignOutcome is one campaign brought to a terminal state.
type campaignOutcome struct {
	latency time.Duration
	submit  time.Duration
	polls   int
	status  jobs.Status
	res     service.StreamCampaignResult
}

// campaign submits one stream campaign and polls its status every
// servicePollInterval until it is done or failed. With rec non-nil it
// records the op's spans: the submit round trip and every poll as the
// client saw them, and the queue wait, the run, and the run's profile,
// capture and stream stages as the service reported them.
func (d *deployment) campaign(ctx context.Context, seed uint64, rec *spanRecorder, op int) (*campaignOutcome, error) {
	spec := &service.CampaignSpec{
		Kind: service.KindStream, Seed: seed, Encryptions: 1,
		TargetBikz: d.target, Tenant: "revealbench",
	}
	root := -1
	if rec != nil {
		root = rec.open(op, -1, rootSpan)
	}
	c, err := d.submitAndWait(ctx, spec, rec, op, root)
	if rec != nil {
		rec.close(root)
	}
	if err != nil {
		return nil, err
	}
	if c.status.State != jobs.StateDone {
		return nil, fmt.Errorf("campaign %s ended %s: %s", c.status.ID, c.status.State, c.status.Error)
	}
	raw, err := json.Marshal(c.status.Result)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &c.res); err != nil {
		return nil, fmt.Errorf("decoding result of %s: %w", c.status.ID, err)
	}
	if rec != nil {
		c.recordStages(rec, op, root)
	}
	return c, nil
}

// submitAndWait is the client side of one campaign: submit, then poll
// until the campaign is done or failed.
func (d *deployment) submitAndWait(ctx context.Context, spec *service.CampaignSpec, rec *spanRecorder, op, root int) (*campaignOutcome, error) {
	t0 := time.Now()
	st, err := d.client.Submit(ctx, spec)
	tSubmit := time.Now()
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	c := &campaignOutcome{submit: tSubmit.Sub(t0)}
	if rec != nil {
		rec.add(op, root, "service.submit", t0, tSubmit)
	}
	id := st.ID
	for st.State != jobs.StateDone && st.State != jobs.StateFailed {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(servicePollInterval):
		}
		p0 := time.Now()
		if st, err = d.client.Campaign(ctx, id); err != nil {
			return nil, fmt.Errorf("polling %s: %w", id, err)
		}
		c.polls++
		if rec != nil {
			rec.add(op, root, "service.poll", p0, time.Now())
		}
	}
	c.latency = time.Since(t0)
	c.status = st
	return c, nil
}

// recordStages adds the service-reported intervals of a finished campaign:
// queue wait and run from jobs.Status, and inside the run the template
// lookup or training (profile_seconds), the capture (stream_seconds minus
// the stream engine's time to verdict; it also covers key generation and
// the RVTS encoding) and the stream engine itself (time to verdict).
func (c *campaignOutcome) recordStages(rec *spanRecorder, op, root int) {
	st := c.status
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	runStart := st.SubmittedAt.Add(sec(st.QueueWaitSeconds))
	runEnd := runStart.Add(sec(st.RunSeconds))
	rec.add(op, root, "service.queue_wait", st.SubmittedAt, runStart)
	run := rec.add(op, root, "service.run", runStart, runEnd)
	t := runStart
	for _, stage := range []struct {
		name string
		d    time.Duration
	}{
		{"profile", sec(c.res.ProfileSeconds)},
		{"capture", sec(c.captureSeconds())},
		{"stream", sec(c.ttv())},
	} {
		end := t.Add(stage.d)
		if end.After(runEnd) {
			end = runEnd
		}
		rec.add(op, run, stage.name, t, end)
		t = end
	}
}

func (c *campaignOutcome) ttv() float64 {
	if len(c.res.Runs) == 0 {
		return 0
	}
	return c.res.Runs[0].TTVSeconds
}

func (c *campaignOutcome) captureSeconds() float64 { return c.res.StreamSeconds - c.ttv() }

// check applies the campaign output checks: done, one run, at least one
// coefficient classified, and the planned template cache hit or miss.
func (c *campaignOutcome) check(planHit bool) string {
	switch {
	case len(c.res.Runs) != 1:
		return fmt.Sprintf("campaign %s returned %d runs, want 1", c.status.ID, len(c.res.Runs))
	case c.res.ClassifiedTotal <= 0:
		return fmt.Sprintf("campaign %s classified no coefficient", c.status.ID)
	case c.res.CacheHit != planHit:
		return fmt.Sprintf("campaign %s cache_hit=%v, planned %v", c.status.ID, c.res.CacheHit, planHit)
	}
	return ""
}

// serviceTally accumulates the campaigns of one phase; submitters share it.
type serviceTally struct {
	mu         sync.Mutex
	latencies  []float64
	traced     []float64 // latencies of ops recorded under spans
	untraced   []float64 // latencies of the others, in the traced run
	attempted  int
	failed     int
	failures   []string
	correct    float64
	classified int
	hits       int
	outcomes   []*campaignOutcome
	digest     outputDigest
	wall       time.Duration
	cpu        float64 // process CPU seconds of the phase
}

func (t *serviceTally) add(op int, planHit, spanned bool, c *campaignOutcome, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	fail := func(msg string) {
		t.failed++
		if len(t.failures) < 5 {
			t.failures = append(t.failures, fmt.Sprintf("op %d: %s", op, msg))
		}
	}
	if err != nil {
		fail(err.Error())
		return
	}
	if msg := c.check(planHit); msg != "" {
		fail(msg)
	}
	lat := c.latency.Seconds()
	t.latencies = append(t.latencies, lat)
	if spanned {
		t.traced = append(t.traced, lat)
	} else {
		t.untraced = append(t.untraced, lat)
	}
	t.outcomes = append(t.outcomes, c)
	if len(c.res.Runs) == 1 {
		r := c.res.Runs[0]
		t.correct += r.ValueAcc * float64(r.Classified)
		t.classified += r.Classified
	}
	if c.res.CacheHit {
		t.hits++
	}
	if op < serviceDigestOps && len(c.res.Runs) == 1 {
		r := c.res.Runs[0]
		t.digest.add(op, fmt.Sprintf("seed=%d hit=%v", c.res.Seed, c.res.CacheHit),
			fmt.Sprintf("early_exit=%v bikz=%v acc=%v", r.EarlyExit, r.HintedBikz, r.ValueAcc), r.Classified)
	}
}

// measureService runs the closed loop: serviceSubmitters goroutines, each
// submitting its next campaign once the previous one is done, for d. With
// traced set, ops with an even index are recorded under spans and the odd
// ones are not, so the two latency sets give the tracing overhead.
func (d *deployment) measureService(ctx context.Context, seed uint64, dur time.Duration, traced bool) (*serviceTally, []span) {
	t := &serviceTally{}
	var rec *spanRecorder
	if traced {
		rec = newSpanRecorder()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	c := startClock()
	for s := 0; s < serviceSubmitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(c.wall) < dur {
				op := int(next.Add(1) - 1)
				campaignSeed, planHit := serviceOp(seed, op)
				var r *spanRecorder
				if traced && op%2 == 0 {
					r = rec
				}
				c, err := d.campaign(ctx, campaignSeed, r, op)
				t.add(op, planHit, r != nil, c, err)
			}
		}()
	}
	wg.Wait()
	t.wall, t.cpu = c.stop()
	var spans []span
	if rec != nil {
		spans = rec.snapshot()
	}
	return t, spans
}
