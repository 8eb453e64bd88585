package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"reveal/internal/obs"
)

// MetricQualityDrift is the drift counter family: one series per
// (campaign kind, metric) pair that has crossed its tolerance.
const MetricQualityDrift = "reveal_quality_drift_total"

// DriftConfig configures the watchdog.
type DriftConfig struct {
	// Window is how many recent runs per kind feed the rolling means
	// compared against the baseline (default 8).
	Window int
	// MinRuns is how many runs of a kind must accumulate before a baseline
	// is auto-pinned from their means (default 4). Until a kind has a
	// baseline nothing can fire.
	MinRuns int
	// Tolerance is the relative tolerance before a gated metric counts as
	// drifted (default 0.05), with the same direction-aware semantics as
	// `revealctl compare`: accuracy/margin/SNR may only fall so far, bikz
	// may only rise so far, and timing metrics never gate.
	Tolerance float64
	// MetricTolerance overrides the tolerance per metric name; keys ending
	// in '*' match by prefix (obs.CompareOptions semantics).
	MetricTolerance map[string]float64
	// BaselinePath, when non-empty, persists pinned baselines as JSON so a
	// restarted daemon keeps watching against the same reference.
	BaselinePath string
	// Registry receives the reveal_quality_drift_total counter (nil uses
	// the global recorder's registry).
	Registry *obs.Registry
	// Emit receives one quality_drift journal event per firing (typically
	// obs.Emit); nil disables journaling.
	Emit func(obs.ServiceEvent)
}

// DriftAlert is one watchdog firing: a gated metric's rolling mean moved
// past tolerance in its losing direction.
type DriftAlert struct {
	Kind      string  `json:"kind"`
	Metric    string  `json:"metric"`
	Baseline  float64 `json:"baseline"`
	Current   float64 `json:"current"`
	RelDelta  float64 `json:"rel_delta"`
	Tolerance float64 `json:"tolerance"`
}

// Watchdog watches per-kind quality trajectories: it pins a baseline from
// the first MinRuns runs of each campaign kind, then compares every new
// rolling window of means against it with obs.CompareMetrics. Each firing
// emits a quality_drift journal event and bumps
// reveal_quality_drift_total{kind,metric}; the alert state is
// edge-triggered, so a metric that stays degraded fires once until it
// recovers and degrades again.
type Watchdog struct {
	cfg DriftConfig

	mu        sync.Mutex
	windows   map[string][]map[string]float64 // per kind: recent run values
	baselines map[string]map[string]float64   // per kind: pinned means
	alerting  map[string]map[string]bool      // per kind/metric: in drift
}

// NewWatchdog builds a watchdog, loading persisted baselines from
// cfg.BaselinePath when the file exists.
func NewWatchdog(cfg DriftConfig) (*Watchdog, error) {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.MinRuns <= 0 {
		cfg.MinRuns = 4
	}
	if cfg.MinRuns > cfg.Window {
		cfg.MinRuns = cfg.Window
	}
	if cfg.Tolerance == 0 {
		cfg.Tolerance = 0.05
	}
	w := &Watchdog{
		cfg:       cfg,
		windows:   map[string][]map[string]float64{},
		baselines: map[string]map[string]float64{},
		alerting:  map[string]map[string]bool{},
	}
	if cfg.BaselinePath != "" {
		data, err := os.ReadFile(cfg.BaselinePath)
		switch {
		case err == nil:
			if jerr := json.Unmarshal(data, &w.baselines); jerr != nil {
				return nil, fmt.Errorf("history: parsing baselines %s: %w", cfg.BaselinePath, jerr)
			}
		case !os.IsNotExist(err):
			return nil, fmt.Errorf("history: reading baselines: %w", err)
		}
	}
	return w, nil
}

// registry resolves the counter registry lazily so a zero-config watchdog
// still counts on the global recorder.
func (w *Watchdog) registry() *obs.Registry {
	if w.cfg.Registry != nil {
		return w.cfg.Registry
	}
	return obs.Global().Registry()
}

// Observe feeds one freshly appended record into the watchdog and returns
// any alerts that fired on it. Records without quality metrics (e.g. the
// "sleep" testing kind) are ignored.
func (w *Watchdog) Observe(rec RunRecord) []DriftAlert {
	if w == nil || len(rec.Metrics) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	win := append(w.windows[rec.Kind], rec.Values())
	if len(win) > w.cfg.Window {
		win = win[len(win)-w.cfg.Window:]
	}
	w.windows[rec.Kind] = win

	if w.baselines[rec.Kind] == nil {
		if len(win) >= w.cfg.MinRuns {
			w.baselines[rec.Kind] = meansOf(win)
			w.persistLocked()
		}
		return nil
	}
	return w.evaluateLocked(rec.Kind)
}

// evaluateLocked compares the kind's rolling means against its baseline and
// fires edge-triggered alerts.
func (w *Watchdog) evaluateLocked(kind string) []DriftAlert {
	baseline := w.baselines[kind]
	means := meansOf(w.windows[kind])
	deltas, _ := obs.CompareMetrics(
		&obs.RunMetrics{Path: "baseline", Kind: "history", Values: baseline},
		&obs.RunMetrics{Path: "window", Kind: "history", Values: means},
		obs.CompareOptions{Tolerance: w.cfg.Tolerance, MetricTolerance: w.cfg.MetricTolerance},
	)
	state := w.alerting[kind]
	if state == nil {
		state = map[string]bool{}
		w.alerting[kind] = state
	}
	var alerts []DriftAlert
	for _, d := range deltas {
		// A metric absent from the current window (MissingIn) is not a
		// quality drop — small windows legitimately miss optional metrics.
		if d.MissingIn != "" {
			state[d.Name] = false
			continue
		}
		if !d.Regressed {
			state[d.Name] = false
			continue
		}
		if state[d.Name] {
			continue // still drifted; already reported
		}
		state[d.Name] = true
		alert := DriftAlert{
			Kind: kind, Metric: d.Name,
			Baseline: d.Old, Current: d.New,
			RelDelta: d.RelDelta, Tolerance: d.Tolerance,
		}
		alerts = append(alerts, alert)
		w.registry().Counter(obs.LabelKeys(MetricQualityDrift,
			"kind", kind, "metric", d.Name)).Inc()
		if w.cfg.Emit != nil {
			w.cfg.Emit(obs.ServiceEvent{
				Type: obs.EventQualityDrift,
				Kind: kind,
				Detail: fmt.Sprintf("%s: baseline %.6g -> window mean %.6g (%+.1f%%, tolerance %.0f%%)",
					d.Name, d.Old, d.New, 100*d.RelDelta, 100*d.Tolerance),
			})
		}
	}
	return alerts
}

// Baselines returns a copy of the pinned baselines keyed by kind.
func (w *Watchdog) Baselines() map[string]map[string]float64 {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]map[string]float64, len(w.baselines))
	for kind, metrics := range w.baselines {
		m := make(map[string]float64, len(metrics))
		for k, v := range metrics {
			m[k] = v
		}
		out[kind] = m
	}
	return out
}

// Kinds returns the kinds with a pinned baseline, sorted.
func (w *Watchdog) Kinds() []string {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	kinds := make([]string, 0, len(w.baselines))
	for k := range w.baselines {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// persistLocked writes the baselines atomically (tmp + rename); best-effort
// — the watchdog keeps working in memory when the disk write fails.
func (w *Watchdog) persistLocked() {
	if w.cfg.BaselinePath == "" {
		return
	}
	data, err := json.MarshalIndent(w.baselines, "", "  ")
	if err != nil {
		return
	}
	tmp := w.cfg.BaselinePath + ".tmp"
	if err := os.MkdirAll(filepath.Dir(w.cfg.BaselinePath), 0o755); err != nil {
		return
	}
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, w.cfg.BaselinePath)
}

// meansOf averages a window of value maps metric by metric.
func meansOf(window []map[string]float64) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, values := range window {
		for name, v := range values {
			sums[name] += v
			counts[name]++
		}
	}
	means := make(map[string]float64, len(sums))
	for name, sum := range sums {
		means[name] = sum / float64(counts[name])
	}
	return means
}
