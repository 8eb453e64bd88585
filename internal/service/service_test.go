package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/obs"
	"reveal/internal/sampler"
)

// fastQueue keeps retry latencies test-friendly.
func fastQueue() jobs.Options {
	return jobs.Options{
		MaxAttempts: 3,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
	}
}

// newTestService assembles a service with an httptest front end.
func newTestService(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.QueueOptions == (jobs.Options{}) {
		cfg.QueueOptions = fastQueue()
	}
	svc := New(cfg)
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, NewClient(ts.URL)
}

// testAttackSpec is the campaign used by the end-to-end tests: paper
// parameters with a profiling campaign scaled down for test speed.
func testAttackSpec() *CampaignSpec {
	return &CampaignSpec{
		Kind:                  KindAttack,
		Seed:                  21,
		ProfileTracesPerValue: 8,
		Encryptions:           1,
		Workers:               2,
	}
}

// TestEndToEndAttackCampaign drives the full service path: submit an
// attack campaign over HTTP, wait for queued→done, fetch the result, and
// check it matches a direct replication of the runner's computation through
// the core API (same seeds, fresh devices — the service adds queueing and
// parallelism, never different numbers). A second submission of the same
// spec must hit the template cache and reproduce the identical result.
func TestEndToEndAttackCampaign(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1, CacheCapacity: 2})
	ctx := context.Background()
	spec := testAttackSpec()

	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateQueued {
		t.Fatalf("submitted state = %s, want queued", st.State)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	done, err := client.WaitDone(waitCtx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone {
		t.Fatalf("campaign ended %s: %s", done.State, done.Error)
	}
	var got AttackCampaignResult
	if err := client.Result(ctx, st.ID, &got); err != nil {
		t.Fatal(err)
	}
	if got.CacheHit {
		t.Error("first campaign cannot be a cache hit")
	}
	if got.Coefficients != 2*1024 {
		t.Fatalf("coefficients = %d, want 2048", got.Coefficients)
	}
	if got.SignAcc < 0.9 {
		t.Errorf("sign accuracy %.3f implausibly low", got.SignAcc)
	}

	// Direct replication through core, bypassing the service entirely.
	profDev, popts := spec.deviceAndOptions()
	cls, err := core.Profile(profDev, popts)
	if err != nil {
		t.Fatal(err)
	}
	attackDev := core.NewDevice(spec.Seed ^ attackDeviceSalt)
	params := bfv.PaperParameters()
	prng := sampler.NewXoshiro256(spec.Seed ^ 0xABCD)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, prng)
	pt := params.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i*31) % params.T
	}
	cap, err := core.CaptureEncryption(attackDev, params, enc, pt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cls.Attack(cap, params.N)
	if err != nil {
		t.Fatal(err)
	}
	wantV1, wantS1, err := out.E1.Accuracy(cap.Truth.E1)
	if err != nil {
		t.Fatal(err)
	}
	wantV2, wantS2, err := out.E2.Accuracy(cap.Truth.E2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(got.Runs))
	}
	r := got.Runs[0]
	if r.ValueAccE1 != wantV1 || r.SignAccE1 != wantS1 || r.ValueAccE2 != wantV2 || r.SignAccE2 != wantS2 {
		t.Errorf("service result (%.4f/%.4f, %.4f/%.4f) != direct core result (%.4f/%.4f, %.4f/%.4f)",
			r.ValueAccE1, r.SignAccE1, r.ValueAccE2, r.SignAccE2, wantV1, wantS1, wantV2, wantS2)
	}

	// Same spec again: cache hit, identical numbers.
	st2, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	done2, err := client.WaitDone(waitCtx, st2.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done2.State != jobs.StateDone {
		t.Fatalf("second campaign ended %s: %s", done2.State, done2.Error)
	}
	var got2 AttackCampaignResult
	if err := client.Result(ctx, st2.ID, &got2); err != nil {
		t.Fatal(err)
	}
	if !got2.CacheHit {
		t.Error("second identical campaign missed the template cache")
	}
	if got2.ValueAcc != got.ValueAcc || got2.SignAcc != got.SignAcc {
		t.Errorf("cache-hit campaign diverged: (%.4f, %.4f) vs (%.4f, %.4f)",
			got2.ValueAcc, got2.SignAcc, got.ValueAcc, got.SignAcc)
	}
	if got2.TemplateKey != got.TemplateKey {
		t.Errorf("template keys differ: %s vs %s", got2.TemplateKey, got.TemplateKey)
	}
}

// TestJobLifecycleOverHTTP observes queued → running → done through the
// API with a single worker and two sleep campaigns.
func TestJobLifecycleOverHTTP(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1})
	ctx := context.Background()

	first, err := client.Submit(ctx, &CampaignSpec{Kind: KindSleep, SleepMS: 300})
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Submit(ctx, &CampaignSpec{Kind: KindSleep, SleepMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The single worker must be on the first job; the second stays queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st1, err := client.Campaign(ctx, first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st1.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never ran: %s", st1.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st2, err := client.Campaign(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != jobs.StateQueued {
		t.Fatalf("second job = %s while first is running on 1 worker", st2.State)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for _, id := range []string{first.ID, second.ID} {
		st, err := client.WaitDone(waitCtx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != jobs.StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	list, err := client.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list))
	}
}

// TestRetryOverHTTP exercises the retry machinery through the API: a sleep
// campaign failing its first attempt succeeds on the second.
func TestRetryOverHTTP(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1})
	ctx := context.Background()
	st, err := client.Submit(ctx, &CampaignSpec{Kind: KindSleep, SleepMS: 5, FailAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	done, err := client.WaitDone(waitCtx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone || done.Attempts != 2 {
		t.Fatalf("job = %s after %d attempts, want done after 2 (%s)", done.State, done.Attempts, done.Error)
	}
	var res SleepCampaignResult
	if err := client.Result(ctx, st.ID, &res); err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Fatalf("result attempts = %d, want 2", res.Attempts)
	}
}

// TestCancelOverHTTP cancels a running sleep campaign via DELETE.
func TestCancelOverHTTP(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1})
	ctx := context.Background()
	st, err := client.Submit(ctx, &CampaignSpec{Kind: KindSleep, SleepMS: 30000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := client.Campaign(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never ran: %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := client.do(ctx, http.MethodDelete, "/api/v1/campaigns/"+st.ID, nil, nil); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	done, err := client.WaitDone(waitCtx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateFailed || done.Error != "canceled" {
		t.Fatalf("canceled job = %s (%q)", done.State, done.Error)
	}
}

// TestShutdownDrainsRunningJob verifies SIGTERM semantics at the service
// layer: Shutdown lets the in-flight job finish and rejects new work.
func TestShutdownDrainsRunningJob(t *testing.T) {
	cfg := Config{PoolWorkers: 1, QueueOptions: fastQueue()}
	svc := New(cfg)
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	st, err := client.Submit(ctx, &CampaignSpec{Kind: KindSleep, SleepMS: 300})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := client.Campaign(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never ran: %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	done, err := client.Campaign(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone {
		t.Fatalf("in-flight job after drain = %s (%s)", done.State, done.Error)
	}
	if _, err := client.Submit(ctx, &CampaignSpec{Kind: KindSleep}); err == nil {
		t.Fatal("submission accepted after shutdown")
	}
}

// TestAPIMountedNextToObservability mounts the service API through
// obs.ServeMetricsWith and checks /healthz, /metrics, and /api/v1/stats all
// answer on one listener.
func TestAPIMountedNextToObservability(t *testing.T) {
	rec := obs.New(obs.Options{})
	svc := New(Config{PoolWorkers: 1, QueueOptions: fastQueue()})
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	srv, err := obs.ServeMetricsWith(rec, "127.0.0.1:0", svc.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, path := range []string{"/healthz", "/metrics", "/progress", "/api/v1/stats", "/api/v1/campaigns"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	// The API works through the shared listener too.
	client := NewClient(base)
	st, err := client.Submit(context.Background(), &CampaignSpec{Kind: KindSleep, SleepMS: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if done, err := client.WaitDone(waitCtx, st.ID, 10*time.Millisecond); err != nil || done.State != jobs.StateDone {
		t.Fatalf("job over shared listener: %+v, %v", done, err)
	}
}

// TestSubmitValidation checks the API rejects malformed specs.
func TestSubmitValidation(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1})
	ctx := context.Background()
	if _, err := client.Submit(ctx, &CampaignSpec{Kind: "bogus"}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := client.Submit(ctx, &CampaignSpec{Kind: KindAttack, Encryptions: 5000}); err == nil {
		t.Error("oversized campaign accepted")
	}
	if _, err := client.Campaign(ctx, "job-999999"); err == nil {
		t.Error("unknown job id returned no error")
	}
	if err := client.Result(ctx, "job-999999", &struct{}{}); err == nil {
		t.Error("result of unknown job returned no error")
	}
}
