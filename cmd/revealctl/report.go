package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"time"

	"reveal/internal/obs/history"
	"reveal/internal/service"
)

// runReport implements `revealctl report`: it pulls the quality history and
// rollups from a running reveald and renders a trajectory report — one
// section per campaign kind with the aggregate statistics (count, mean,
// quantiles, EWMA), the delta against the drift watchdog's pinned baseline,
// and the most recent runs metric by metric. -format csv emits the raw
// trajectory in long form (one row per record and metric) for spreadsheets.
func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:9090", "reveald base URL")
	kind := fs.String("kind", "", "restrict to one campaign kind")
	tenant := fs.String("tenant", "", "restrict to one tenant")
	window := fs.Int("window", 0, "aggregate only the newest N runs per kind (0 = all)")
	rows := fs.Int("rows", 10, "trajectory rows per kind in the markdown report")
	format := fs.String("format", "markdown", "output format: markdown or csv")
	out := fs.String("o", "", "write the report to a file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "markdown" && *format != "csv" {
		return fmt.Errorf("unknown report format %q (markdown or csv)", *format)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := service.NewClient(*addr)
	records, err := fetchAllHistory(ctx, client, *kind, *tenant)
	if err != nil {
		return fmt.Errorf("fetching history from %s: %w", *addr, err)
	}
	agg, err := client.HistoryAggregate(ctx, *kind, *tenant, *window)
	if err != nil {
		return fmt.Errorf("fetching aggregates from %s: %w", *addr, err)
	}

	write := func(w io.Writer) error {
		if *format == "csv" {
			return writeReportCSV(w, records)
		}
		return writeReportMarkdown(w, *addr, records, agg, *rows)
	}
	if *out == "" {
		return write(os.Stdout)
	}
	return writeFile(*out, write)
}

// fetchAllHistory pages through GET /api/v1/history until the cursor is
// exhausted.
func fetchAllHistory(ctx context.Context, client *service.Client, kind, tenant string) ([]history.RunRecord, error) {
	var records []history.RunRecord
	var after int64
	for {
		page, err := client.History(ctx, kind, tenant, after, 0)
		if err != nil {
			return nil, err
		}
		records = append(records, page.Records...)
		if page.NextAfter == 0 {
			return records, nil
		}
		after = page.NextAfter
	}
}

// writeReportMarkdown renders the per-kind aggregate and trajectory tables.
func writeReportMarkdown(w io.Writer, addr string, records []history.RunRecord,
	agg service.HistoryAggregateResponse, rows int) error {
	fmt.Fprintf(w, "# Campaign quality report\n\n")
	fmt.Fprintf(w, "- daemon: %s\n- generated: %s\n- records: %d\n\n",
		addr, time.Now().UTC().Format(time.RFC3339), len(records))
	if len(agg.Aggregates) == 0 {
		fmt.Fprintln(w, "No finished campaigns recorded yet.")
		return nil
	}
	for _, ka := range agg.Aggregates {
		title := ka.Kind
		if ka.Tenant != "" {
			title += " / " + ka.Tenant
		}
		fmt.Fprintf(w, "## %s (%d runs)\n\n", title, ka.Runs)

		baseline := agg.Baselines[ka.Kind]
		fmt.Fprintln(w, "| metric | count | mean | p50 | p95 | last | ewma | baseline | Δ vs baseline |")
		fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|---:|")
		for _, m := range ka.Metrics {
			base, delta := "-", "-"
			if b, ok := baseline[m.Metric]; ok && b != 0 {
				base = fmtMetric(b)
				delta = fmt.Sprintf("%+.1f%%", 100*(m.Mean-b)/math.Abs(b))
			}
			fmt.Fprintf(w, "| %s | %d | %s | %s | %s | %s | %s | %s | %s |\n",
				m.Metric, m.Count, fmtMetric(m.Mean), fmtMetric(m.P50),
				fmtMetric(m.P95), fmtMetric(m.Last), fmtMetric(m.EWMA), base, delta)
		}
		fmt.Fprintln(w)

		writeTrajectory(w, ka, recordsForKind(records, ka.Kind), rows)
	}
	return nil
}

// recordsForKind filters the fetched records down to one kind, preserving
// the oldest-first order.
func recordsForKind(records []history.RunRecord, kind string) []history.RunRecord {
	var out []history.RunRecord
	for _, r := range records {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// writeTrajectory renders the newest runs of one kind, one row per run with
// the kind's aggregate metrics as columns.
func writeTrajectory(w io.Writer, ka history.KindAggregate, records []history.RunRecord, rows int) {
	if len(records) == 0 || rows <= 0 {
		return
	}
	if len(records) > rows {
		records = records[len(records)-rows:]
	}
	cols := make([]string, 0, len(ka.Metrics))
	for _, m := range ka.Metrics {
		cols = append(cols, m.Metric)
	}
	fmt.Fprintf(w, "Trajectory (newest %d runs):\n\n", len(records))
	fmt.Fprint(w, "| seq | time | tenant |")
	for _, c := range cols {
		fmt.Fprintf(w, " %s |", c)
	}
	fmt.Fprint(w, "\n|---:|---|---|")
	for range cols {
		fmt.Fprint(w, "---:|")
	}
	fmt.Fprintln(w)
	for _, r := range records {
		vals := r.Values()
		fmt.Fprintf(w, "| %d | %s | %s |", r.Seq, r.Time.UTC().Format("01-02 15:04:05"), r.Tenant)
		for _, c := range cols {
			if v, ok := vals[c]; ok {
				fmt.Fprintf(w, " %s |", fmtMetric(v))
			} else {
				fmt.Fprint(w, " - |")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// writeReportCSV emits the trajectory in long form: one row per record and
// metric, stable for spreadsheets and ad-hoc plotting.
func writeReportCSV(w io.Writer, records []history.RunRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seq", "time", "kind", "tenant", "job_id", "metric", "value"}); err != nil {
		return err
	}
	for _, r := range records {
		vals := r.Values()
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			err := cw.Write([]string{
				strconv.FormatInt(r.Seq, 10),
				r.Time.UTC().Format(time.RFC3339),
				r.Kind, r.Tenant, r.JobID, name,
				strconv.FormatFloat(vals[name], 'g', -1, 64),
			})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// fmtMetric renders a metric value compactly: quality ratios keep four
// decimals, large magnitudes switch to scientific-free fixed point.
func fmtMetric(v float64) string {
	switch {
	case v != v:
		return "NaN"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return strconv.FormatFloat(v, 'f', 1, 64)
	case math.Abs(v) >= 1:
		return strconv.FormatFloat(v, 'f', 3, 64)
	default:
		return strconv.FormatFloat(v, 'f', 4, 64)
	}
}
