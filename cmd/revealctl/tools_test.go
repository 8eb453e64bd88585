package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/tools")

const toolData = "testdata/tools"

// TestToolGoldens runs the offline tool subcommands on fixed inputs and
// compares their data output byte for byte with the pinned files. What is
// pinned per case: stdout, the file written to {out}, or (for the binary
// .rvts sets) the SHA-256 of that file.
func TestToolGoldens(t *testing.T) {
	countdown := filepath.Join(toolData, "countdown.s")
	cases := []struct {
		golden string
		run    func([]string, io.Writer) error
		args   []string
		pin    string // "stdout", "file" or "sha256"
	}{
		{"estimator_table3.txt", runEstimator, []string{"-table", "3"}, "stdout"},
		{"estimator_table4.txt", runEstimator, []string{"-table", "4"}, "stdout"},
		{"estimator_hints_sign.txt", runEstimator, []string{"-hints", "sign"}, "stdout"},
		{"estimator_hints_full.txt", runEstimator, []string{"-hints", "full"}, "stdout"},
		{"estimator_sweep.txt", runEstimator, []string{"-sweep"}, "stdout"},
		{"figures_3a.csv", runFigures, []string{"-fig", "3a", "-o", "{out}"}, "file"},
		{"figures_3b.csv", runFigures, []string{"-fig", "3b", "-o", "{out}"}, "file"},
		{"figures_timing.csv", runFigures, []string{"-fig", "timing", "-o", "{out}"}, "file"},
		{"tracegen.sha256", runTracegen, []string{"-o", "{out}", "-count", "200"}, "sha256"},
		{"tracegen_lownoise.sha256", runTracegen, []string{"-o", "{out}", "-count", "200", "-lownoise"}, "sha256"},
		{"rvsim.txt", runRvsim, []string{"-s", countdown}, "stdout"},
		{"rvsim_disasm.txt", runRvsim, []string{"-s", countdown, "-disasm"}, "stdout"},
		{"rvsim_trace.csv", runRvsim, []string{"-s", countdown, "-trace", "{out}"}, "file"},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			var stdout bytes.Buffer
			if err := c.run(withOut(c.args, out), &stdout); err != nil {
				t.Fatal(err)
			}
			got := stdout.Bytes()
			if c.pin != "stdout" {
				data, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				got = data
				if c.pin == "sha256" {
					sum := sha256.Sum256(data)
					got = []byte(hex.EncodeToString(sum[:]) + "\n")
				}
			}
			path := filepath.Join(toolData, c.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (rerun with -update only for a deliberate change)\ngot:\n%s\nwant:\n%s",
					path, clip(got), clip(want))
			}
		})
	}
}

func clip(b []byte) string {
	if len(b) > 600 {
		return string(b[:600]) + "…"
	}
	return string(b)
}

// TestRvsimLabelsSorted checks that the -disasm label listing is ordered
// by address, then name, on every run: the assembler returns the labels as
// a map, so ranging over it directly prints a different order per run.
func TestRvsimLabelsSorted(t *testing.T) {
	var first string
	for run := 0; run < 10; run++ {
		var stdout bytes.Buffer
		if err := runRvsim([]string{"-s", filepath.Join(toolData, "countdown.s"), "-disasm"}, &stdout); err != nil {
			t.Fatal(err)
		}
		_, listing, ok := strings.Cut(stdout.String(), "labels:\n")
		if !ok {
			t.Fatal("no label listing")
		}
		listing, _, _ = strings.Cut(listing, "halted after")
		type label struct {
			addr uint64
			name string
		}
		var labels []label
		for _, line := range strings.Split(strings.TrimSpace(listing), "\n") {
			f := strings.Fields(line)
			if len(f) != 2 {
				t.Fatalf("bad label line %q", line)
			}
			addr, err := strconv.ParseUint(f[1], 0, 32)
			if err != nil {
				t.Fatal(err)
			}
			labels = append(labels, label{addr, f[0]})
		}
		if len(labels) != 5 {
			t.Fatalf("got %d labels, want 5", len(labels))
		}
		if !sort.SliceIsSorted(labels, func(i, j int) bool {
			if labels[i].addr != labels[j].addr {
				return labels[i].addr < labels[j].addr
			}
			return labels[i].name < labels[j].name
		}) {
			t.Fatalf("run %d: labels not sorted by address, then name:\n%s", run, listing)
		}
		if run == 0 {
			first = listing
		} else if listing != first {
			t.Fatalf("run %d listing differs from run 0:\n%s\nvs\n%s", run, listing, first)
		}
	}
}

// TestFiguresBadFigureKeepsOutput checks that an unknown -fig is rejected
// before -o is created, so an existing file survives untouched.
func TestFiguresBadFigureKeepsOutput(t *testing.T) {
	keep := filepath.Join(t.TempDir(), "keep.csv")
	if err := os.WriteFile(keep, []byte("keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err := runFigures([]string{"-fig", "bogus", "-o", keep}, &stdout)
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("err = %v, want unknown figure", err)
	}
	if data, err := os.ReadFile(keep); err != nil || string(data) != "keep\n" {
		t.Fatalf("existing output clobbered: %q, %v", data, err)
	}
}

// TestToolSizeFlagsRejected checks that non-positive sizes are errors, not
// panics or empty outputs, and that nothing is written for them.
func TestToolSizeFlagsRejected(t *testing.T) {
	countdown := filepath.Join(toolData, "countdown.s")
	cases := []struct {
		name string
		run  func([]string, io.Writer) error
		args []string
		want string
	}{
		{"tracegen len -1", runTracegen, []string{"-o", "{out}", "-len", "-1"}, "-len"},
		{"tracegen len 0", runTracegen, []string{"-o", "{out}", "-len", "0"}, "-len"},
		{"tracegen count 0", runTracegen, []string{"-o", "{out}", "-count", "0"}, "-count"},
		{"tracegen count -5", runTracegen, []string{"-o", "{out}", "-count", "-5"}, "-count"},
		{"rvsim mem -1", runRvsim, []string{"-s", countdown, "-trace", "{out}", "-mem", "-1"}, "-mem"},
		{"rvsim mem 0", runRvsim, []string{"-s", countdown, "-trace", "{out}", "-mem", "0"}, "-mem"},
		{"rvsim max 0", runRvsim, []string{"-s", countdown, "-trace", "{out}", "-max", "0"}, "-max"},
		{"rvsim max -1", runRvsim, []string{"-s", countdown, "-trace", "{out}", "-max", "-1"}, "-max"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			var stdout bytes.Buffer
			err := c.run(withOut(c.args, out), &stdout)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want a %s error", err, c.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("output written for a rejected size (stat err %v)", err)
			}
		})
	}
}

// withOut substitutes out for every {out} in args.
func withOut(args []string, out string) []string {
	r := make([]string, len(args))
	for i, a := range args {
		r[i] = strings.ReplaceAll(a, "{out}", out)
	}
	return r
}
