package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Manifest is the reproducibility record written to <run-dir>/manifest.json:
// everything needed to identify, compare, and re-run a campaign.
type Manifest struct {
	Tool    string   `json:"tool"`
	Command string   `json:"command,omitempty"`
	Args    []string `json:"args,omitempty"`
	// TraceID is the request trace identity the run belongs to (service
	// jobs only): the same ID appears in the HTTP response header, the job
	// journal, run.log lines, and the trace.json flow events.
	TraceID     string    `json:"trace_id,omitempty"`
	Seed        uint64    `json:"seed"`
	GitDescribe string    `json:"git_describe,omitempty"`
	GoVersion   string    `json:"go_version,omitempty"`
	StartTime   time.Time `json:"start_time"`
	EndTime     time.Time `json:"end_time"`
	// DurationSeconds is the wall time of the whole run.
	DurationSeconds float64 `json:"duration_seconds"`
	// Config is the campaign configuration, marshaled verbatim.
	Config json.RawMessage `json:"config,omitempty"`
	// Stages carries the per-stage timing/throughput aggregates.
	Stages []StageStats `json:"stages,omitempty"`
	// Results holds the campaign's headline numbers (accuracy, bikz,
	// confusion summary, …).
	Results map[string]any `json:"results,omitempty"`
	// Metrics is the full registry snapshot at the end of the run.
	Metrics RegistrySnapshot `json:"metrics,omitempty"`
}

// WriteManifest writes m as indented JSON.
func WriteManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling manifest: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// GitDescribe returns `git describe --always --dirty` for the working tree
// ("" when git or the repository is unavailable).
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Run is an archived campaign: a run directory, a recorder installed as
// the global one, and the manifest being accumulated. Finish writes
// manifest.json, metrics.txt, and closes the run.log file.
type Run struct {
	Dir      string
	Recorder *Recorder
	Manifest *Manifest

	logFile    *os.File
	wasGlobal  *Recorder
	metricsSrv *MetricsServer
}

// RunOptions configures StartRun.
type RunOptions struct {
	// Tool and Command identify the entry point ("revealctl", "attack").
	Tool, Command string
	// Args are the raw CLI arguments, recorded for reproducibility.
	Args []string
	// Seed is the campaign seed.
	Seed uint64
	// Config is marshaled into the manifest's config field.
	Config any
	// LogLevel bounds the run.log / console stream (default Info).
	LogLevel slog.Level
	// JSONLog switches console logging to JSON records.
	JSONLog bool
	// Quiet suppresses console logging (run.log is still written).
	Quiet bool
	// MetricsAddr, when non-empty, serves /metrics, /progress and
	// /debug/pprof on that address for the lifetime of the run.
	MetricsAddr string
	// TraceCapacity bounds the span trace-event buffer written to
	// trace.json (0 = DefaultTraceCapacity, negative disables tracing).
	TraceCapacity int
	// CoeffCapacity bounds the per-coefficient journal written to
	// coeffs.jsonl (0 = DefaultCoeffCapacity, negative disables it).
	CoeffCapacity int
}

// capacityOrDefault resolves the StartRun capacity convention.
func capacityOrDefault(v, def int) int {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return def
	default:
		return v
	}
}

// StartRun creates dir, builds a recorder logging to both stderr and
// <dir>/run.log, installs it globally, and returns the Run handle.
func StartRun(dir string, opts RunOptions) (*Run, error) {
	if dir == "" {
		return nil, fmt.Errorf("obs: empty run directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: creating run dir: %w", err)
	}
	logFile, err := os.Create(filepath.Join(dir, "run.log"))
	if err != nil {
		return nil, fmt.Errorf("obs: creating run.log: %w", err)
	}
	fileLogger := NewLogger(LogOptions{Level: opts.LogLevel, JSON: true, Output: logFile})
	var console *slog.Logger
	if !opts.Quiet {
		console = NewLogger(LogOptions{Level: opts.LogLevel, JSON: opts.JSONLog, Output: os.Stderr})
	}
	rec := New(Options{
		Logger:        TeeLogger(fileLogger, console),
		TraceCapacity: capacityOrDefault(opts.TraceCapacity, DefaultTraceCapacity),
		CoeffCapacity: capacityOrDefault(opts.CoeffCapacity, DefaultCoeffCapacity),
	})

	var cfg json.RawMessage
	if opts.Config != nil {
		cfg, err = json.Marshal(opts.Config)
		if err != nil {
			logFile.Close()
			return nil, fmt.Errorf("obs: marshaling run config: %w", err)
		}
	}
	run := &Run{
		Dir:      dir,
		Recorder: rec,
		Manifest: &Manifest{
			Tool:        opts.Tool,
			Command:     opts.Command,
			Args:        opts.Args,
			Seed:        opts.Seed,
			GitDescribe: GitDescribe(),
			GoVersion:   runtime.Version(),
			StartTime:   time.Now().UTC(),
			Config:      cfg,
		},
		logFile:   logFile,
		wasGlobal: Global(),
	}
	SetGlobal(rec)
	if opts.MetricsAddr != "" {
		srv, err := ServeMetrics(rec, opts.MetricsAddr)
		if err != nil {
			rec.Logger().Warn("metrics server failed to start",
				"addr", opts.MetricsAddr, "err", err)
		} else {
			run.metricsSrv = srv
			rec.Logger().Info("metrics server listening", "addr", srv.Addr())
		}
	}
	rec.Logger().Info("run started", "tool", opts.Tool, "command", opts.Command,
		"dir", dir, "seed", opts.Seed, "git", run.Manifest.GitDescribe)
	return run, nil
}

// SetResult records one headline result in the manifest.
func (r *Run) SetResult(key string, value any) {
	if r == nil {
		return
	}
	if r.Manifest.Results == nil {
		r.Manifest.Results = map[string]any{}
	}
	r.Manifest.Results[key] = value
}

// Finish seals the manifest (end time, stage stats, metric snapshot),
// writes manifest.json and the Prometheus-text metrics.txt into the run
// directory, restores the previous global recorder, and closes run.log.
func (r *Run) Finish() error {
	if r == nil {
		return nil
	}
	r.Manifest.EndTime = time.Now().UTC()
	r.Manifest.DurationSeconds = r.Manifest.EndTime.Sub(r.Manifest.StartTime).Seconds()
	r.Manifest.Stages = r.Recorder.StageStats()
	r.Manifest.Metrics = r.Recorder.Registry().Snapshot()

	var firstErr error
	if err := WriteManifest(filepath.Join(r.Dir, "manifest.json"), r.Manifest); err != nil {
		firstErr = err
	}
	mf, err := os.Create(filepath.Join(r.Dir, "metrics.txt"))
	if err == nil {
		err = r.Recorder.Registry().WritePrometheus(mf)
		if cerr := mf.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil && firstErr == nil {
		firstErr = fmt.Errorf("obs: writing metrics.txt: %w", err)
	}
	writeEvents := func(name string, write func(io.Writer) error) {
		f, err := os.Create(filepath.Join(r.Dir, name))
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("obs: writing %s: %w", name, err)
		}
	}
	if r.Recorder.TracingEnabled() {
		writeEvents("trace.json", r.Recorder.WriteTraceJSON)
	}
	if r.Recorder.CoeffJournalEnabled() {
		writeEvents("coeffs.jsonl", r.Recorder.WriteCoeffsJSONL)
	}
	r.Recorder.Logger().Info("run finished",
		"duration", time.Duration(r.Manifest.DurationSeconds*float64(time.Second)),
		"manifest", filepath.Join(r.Dir, "manifest.json"))
	if r.metricsSrv != nil {
		r.metricsSrv.Close()
	}
	SetGlobal(r.wasGlobal)
	if err := r.logFile.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
