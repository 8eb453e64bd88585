package history

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"reveal/internal/obs"
)

func record(kind string, metrics map[string]float64) RunRecord {
	return RunRecord{Kind: kind, Metrics: metrics}
}

// TestWatchdogFiresOnDegradingAccuracy feeds a synthetic series: a stable
// high-accuracy phase that pins the baseline, then a collapse. The watchdog
// must fire exactly once per drifted metric (edge-triggered), emit the
// journal event, and bump the labeled counter.
func TestWatchdogFiresOnDegradingAccuracy(t *testing.T) {
	reg := obs.NewRegistry()
	var events []obs.ServiceEvent
	w, err := NewWatchdog(DriftConfig{
		Window: 4, MinRuns: 4, Tolerance: 0.05,
		Registry: reg,
		Emit:     func(ev obs.ServiceEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy phase: accuracy ~0.95 pins the baseline after MinRuns.
	for i := 0; i < 4; i++ {
		if alerts := w.Observe(record("attack", map[string]float64{
			"value_accuracy": 0.95, "mean_margin": 0.8,
		})); alerts != nil {
			t.Fatalf("run %d: fired before a baseline existed: %+v", i, alerts)
		}
	}
	if base := w.Baselines()["attack"]; math.Abs(base["value_accuracy"]-0.95) > 1e-12 {
		t.Fatalf("baseline not pinned from the healthy window: %v", base)
	}

	// A single mildly-low run inside the window mean tolerance: no alert.
	if alerts := w.Observe(record("attack", map[string]float64{
		"value_accuracy": 0.90, "mean_margin": 0.78,
	})); len(alerts) != 0 {
		t.Fatalf("one soft run must not fire through a window of 4: %+v", alerts)
	}

	// Collapse: repeated 0.60 runs drag the rolling mean far past 5%.
	var fired []DriftAlert
	for i := 0; i < 6; i++ {
		fired = append(fired, w.Observe(record("attack", map[string]float64{
			"value_accuracy": 0.60, "mean_margin": 0.30,
		}))...)
	}
	var accAlert *DriftAlert
	for i := range fired {
		if fired[i].Metric == "value_accuracy" {
			if accAlert != nil {
				t.Fatalf("value_accuracy fired twice without recovery: %+v", fired)
			}
			accAlert = &fired[i]
		}
	}
	if accAlert == nil {
		t.Fatalf("degrading accuracy never fired: %+v", fired)
	}
	if accAlert.Baseline < accAlert.Current {
		t.Fatalf("alert direction wrong: %+v", accAlert)
	}
	if accAlert.RelDelta >= -0.05 {
		t.Fatalf("rel delta %.3f should be well past −5%%", accAlert.RelDelta)
	}

	// Journal + counter surfaces.
	found := false
	for _, ev := range events {
		if ev.Type == obs.EventQualityDrift && ev.Kind == "attack" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no quality_drift journal event emitted: %+v", events)
	}
	key := obs.LabelKeys(MetricQualityDrift, "kind", "attack", "metric", "value_accuracy")
	if got := reg.Counter(key).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", key, got)
	}

	// Recovery then a second collapse re-arms the edge trigger.
	for i := 0; i < 4; i++ {
		w.Observe(record("attack", map[string]float64{"value_accuracy": 0.95, "mean_margin": 0.8}))
	}
	refired := 0
	for i := 0; i < 6; i++ {
		for _, a := range w.Observe(record("attack", map[string]float64{
			"value_accuracy": 0.55, "mean_margin": 0.2,
		})) {
			if a.Metric == "value_accuracy" {
				refired++
			}
		}
	}
	if refired != 1 {
		t.Fatalf("re-armed trigger fired %d times, want 1", refired)
	}
	if got := reg.Counter(key).Value(); got != 2 {
		t.Fatalf("%s = %d after second drift, want 2", key, got)
	}
}

// TestWatchdogDirectionAwareness: timing metrics must never fire, and a
// *rising* bikz (lower-better) must.
func TestWatchdogDirectionAwareness(t *testing.T) {
	w, err := NewWatchdog(DriftConfig{Window: 1, MinRuns: 1, Tolerance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	base := RunRecord{Kind: "attack", ElapsedSeconds: 1.0,
		Stages:  map[string]float64{"attack_seconds": 0.5},
		Metrics: map[string]float64{"hinted_bikz": 10, "value_accuracy": 0.9}}
	if alerts := w.Observe(base); alerts != nil {
		t.Fatalf("first run pinned, must not fire: %+v", alerts)
	}
	// Much slower run, same quality: timing is informational, no alert.
	slow := RunRecord{Kind: "attack", ElapsedSeconds: 50.0,
		Stages:  map[string]float64{"attack_seconds": 40},
		Metrics: map[string]float64{"hinted_bikz": 10, "value_accuracy": 0.9}}
	if alerts := w.Observe(slow); len(alerts) != 0 {
		t.Fatalf("timing regression must not trip the quality watchdog: %+v", alerts)
	}
	// bikz rising 50%: hint strength collapsed → alert.
	weak := RunRecord{Kind: "attack",
		Metrics: map[string]float64{"hinted_bikz": 15, "value_accuracy": 0.9}}
	alerts := w.Observe(weak)
	if len(alerts) != 1 || alerts[0].Metric != "hinted_bikz" {
		t.Fatalf("rising bikz must fire exactly hinted_bikz: %+v", alerts)
	}
}

// TestWatchdogBaselinePersistence pins a baseline, restarts the watchdog
// from the same path, and checks the reloaded baseline still gates.
func TestWatchdogBaselinePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history", "baselines.json")
	cfg := DriftConfig{Window: 2, MinRuns: 2, Tolerance: 0.05, BaselinePath: path}
	w, err := NewWatchdog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Observe(record("attack", map[string]float64{"value_accuracy": 0.9}))
	w.Observe(record("attack", map[string]float64{"value_accuracy": 0.9}))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("baseline file not persisted: %v", err)
	}

	w2, err := NewWatchdog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base := w2.Baselines()["attack"]; math.Abs(base["value_accuracy"]-0.9) > 1e-12 {
		t.Fatalf("reloaded baseline = %v", base)
	}
	if kinds := w2.Kinds(); len(kinds) != 1 || kinds[0] != "attack" {
		t.Fatalf("Kinds = %v", kinds)
	}
	// With the baseline restored, the very first bad window must fire —
	// no re-accumulating MinRuns healthy runs after a restart.
	alerts := w2.Observe(record("attack", map[string]float64{"value_accuracy": 0.5}))
	alerts = append(alerts, w2.Observe(record("attack", map[string]float64{"value_accuracy": 0.5}))...)
	if len(alerts) != 1 || alerts[0].Metric != "value_accuracy" {
		t.Fatalf("restored baseline did not gate exactly once: %+v", alerts)
	}
}

// Metric-less records and a nil watchdog are ignored.
func TestWatchdogIgnoresMetricless(t *testing.T) {
	w, err := NewWatchdog(DriftConfig{Window: 2, MinRuns: 2, Tolerance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if alerts := w.Observe(RunRecord{Kind: "sleep"}); alerts != nil {
		t.Fatalf("metric-less record fired: %+v", alerts)
	}
	var nilW *Watchdog
	if nilW.Observe(record("attack", map[string]float64{"value_accuracy": 1})) != nil {
		t.Fatal("nil watchdog must ignore Observe")
	}
}
