package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"reveal/internal/core"
	"reveal/internal/dbdd"
	"reveal/internal/experiments"
	"reveal/internal/obs"
	"reveal/internal/power"
	"reveal/internal/rv32"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// This file holds the offline tools: the DBDD estimator behind Tables III
// and IV, the Fig. 3 data series, the labeled trace-set generator and the
// RV32 simulator driver. Each writes its data to stdout (or the file it is
// given) and takes the shared observability flags like every other
// subcommand.

// writeFile creates path, hands it to write and reports the first error of
// the write and the final Close, so a failed last flush is not success.
func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// runEstimator implements `revealctl estimator`: the "LWE with side
// information" (DBDD) security estimate of Tables III and IV without
// running the device, with hints simulated at the quality the paper's
// measurements achieved.
func runEstimator(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("estimator", flag.ExitOnError)
	table := fs.Int("table", 0, "reproduce paper table 3 or 4 (overrides -hints)")
	n := fs.Int("n", 1024, "LWE secret dimension (= #samples)")
	q := fs.Float64("q", 132120577, "modulus")
	sigma := fs.Float64("sigma", 3.2, "error standard deviation")
	hints := fs.String("hints", "none", "hint model: none, sign, full")
	seed := fs.Uint64("seed", 1, "seed for the simulated error vector")
	sweep := fs.Bool("sweep", false, "estimate the attack across all SEAL default degrees")
	ofl := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*sweep && *table != 0 && *table != 3 && *table != 4 {
		return fmt.Errorf("unknown table %d (use 3 or 4)", *table)
	}
	camp, err := ofl.start("estimator", args, *seed, map[string]any{
		"table": *table, "n": *n, "q": *q, "sigma": *sigma,
		"hints": *hints, "sweep": *sweep,
	})
	if err != nil {
		return err
	}
	defer finishCampaign(camp)

	if *sweep {
		rows, err := experiments.RunSecuritySweep([]int{1024, 2048, 4096, 8192, 16384, 32768}, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiments.FormatSweep(rows))
		return nil
	}
	switch *table {
	case 3:
		return estimateTable3(stdout, *n, *q, *sigma, *seed)
	case 4:
		return estimateTable4(stdout, *n, *q, *sigma, *seed)
	}
	ins, err := experiments.SimulatedInstances(*n, *q, *sigma, *seed, *hints)
	if err != nil {
		return err
	}
	bikz, err := ins[0].EstimateBikz()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "n=%d q=%.0f sigma=%.2f hints=%s\n", *n, *q, *sigma, *hints)
	fmt.Fprintf(stdout, "bikz: %.2f  (≈ %.1f bits)\n", bikz, dbdd.BikzToBits(bikz))
	return nil
}

func estimateTable3(w io.Writer, n int, q, sigma float64, seed uint64) error {
	ins, err := experiments.SimulatedInstances(n, q, sigma, seed, "none", "full")
	if err != nil {
		return err
	}
	bikz, err := experiments.EstimateBikz(ins...)
	if err != nil {
		return err
	}
	base, after := bikz[0], bikz[1]
	fmt.Fprintln(w, "Table III — cost of attack with/without hints (SEAL-128)")
	fmt.Fprintf(w, "%-32s %10s %14s\n", "", "measured", "paper")
	fmt.Fprintf(w, "%-32s %10.2f %14s\n", "attack without hints (bikz)", base, "382.25")
	fmt.Fprintf(w, "%-32s %10.2f %14s\n", "attack with hints (bikz)", after, "12.2")
	fmt.Fprintf(w, "%-32s %10.1f %14s\n", "security without hints (bits)", dbdd.BikzToBits(base), "128")
	fmt.Fprintf(w, "%-32s %10.1f %14s\n", "security with hints (bits)", dbdd.BikzToBits(after), "4.4")
	return nil
}

func estimateTable4(w io.Writer, n int, q, sigma float64, seed uint64) error {
	ins, err := experiments.SimulatedInstances(n, q, sigma, seed, "none", "sign")
	if err != nil {
		return err
	}
	bikz, err := experiments.EstimateBikz(ins...)
	if err != nil {
		return err
	}
	hinted := ins[1]
	guess, err := hinted.GuessBestCoordinateIn(n, 2*n)
	if err != nil {
		return err
	}
	withGuess, err := hinted.EstimateBikz()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table IV — branch-only adversary (SEAL-128)")
	fmt.Fprintf(w, "%-36s %10s %14s\n", "", "measured", "paper")
	fmt.Fprintf(w, "%-36s %10.2f %14s\n", "attack without hints (bikz)", bikz[0], "382.25")
	fmt.Fprintf(w, "%-36s %10.2f %14s\n", "attack with hints (bikz)", bikz[1], "253.29")
	fmt.Fprintf(w, "%-36s %10.2f %14s\n", "attack with hints & guesses (bikz)", withGuess, "252.83")
	fmt.Fprintf(w, "%-36s %10d %14s\n", "number of guesses", 1, "1")
	fmt.Fprintf(w, "%-36s %9.0f%% %14s\n", "success probability", 100*guess.SuccessProb, "20%")
	return nil
}

// runFigures implements `revealctl figures`: the data series behind Fig. 3
// of the paper as CSV. 3a is a full power-trace portion covering three
// coefficient samplings with their visible start peaks, 3b the three
// per-branch sub-traces, timing the per-coefficient segment lengths
// (§III-C's time variance).
func runFigures(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	fig := fs.String("fig", "3a", "which figure to emit: 3a, 3b, or timing")
	out := fs.String("o", "", "output file (default stdout)")
	seed := fs.Uint64("seed", 77, "capture seed")
	ofl := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reject a bad figure before any capture runs and before -o is
	// truncated.
	switch *fig {
	case "3a", "3b", "timing":
	default:
		return fmt.Errorf("unknown figure %q (use 3a, 3b, or timing)", *fig)
	}
	camp, err := ofl.start("figures", args, *seed, map[string]any{"fig": *fig, "o": *out})
	if err != nil {
		return err
	}
	defer finishCampaign(camp)

	var write func(io.Writer) error
	if *fig == "timing" {
		tr, err := experiments.RunTimingVariance(256, *seed)
		if err != nil {
			return err
		}
		series := make(trace.Trace, len(tr.Lengths))
		for i, l := range tr.Lengths {
			series[i] = float64(l)
		}
		write = func(w io.Writer) error { return trace.WriteCSV(w, series) }
		fmt.Fprintf(os.Stderr, "segment lengths: min %d, max %d, mean %.1f, %d distinct values\n",
			tr.Min, tr.Max, tr.Mean, tr.DistinctN)
		camp.setResult("segments", len(tr.Lengths))
		camp.setResult("distinct_lengths", tr.DistinctN)
	} else {
		r, err := experiments.RunFig3(*seed)
		if err != nil {
			return err
		}
		if *fig == "3a" {
			write = func(w io.Writer) error { return trace.WriteCSV(w, r.Full) }
			camp.setResult("samples", len(r.Full))
		} else {
			write = func(w io.Writer) error {
				return trace.WriteMultiCSV(w,
					[]string{"noise_positive", "noise_negative", "noise_zero"},
					[]trace.Trace{r.Positive, r.Negative, r.Zero})
			}
			camp.setResult("peak_count", r.PeakCount)
		}
	}
	if *out == "" {
		return write(stdout)
	}
	return writeFile(*out, write)
}

// runTracegen implements `revealctl tracegen`: labeled side-channel trace
// sets from the simulated device for offline analysis. Each trace is one
// per-coefficient sub-trace (tail-aligned), labeled with the true
// coefficient value, in the package trace binary format.
func runTracegen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	out := fs.String("o", "traces.rvts", "output file")
	count := fs.Int("count", 1000, "number of labeled sub-traces")
	q := fs.Uint64("q", 132120577, "coefficient modulus")
	seed := fs.Uint64("seed", 1, "device + sampler seed")
	length := fs.Int("len", 40, "sub-trace length (tail-aligned samples)")
	lowNoise := fs.Bool("lownoise", false, "use the low-noise device profile")
	ofl := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count < 1 {
		return fmt.Errorf("-count must be at least 1, got %d", *count)
	}
	if *length < 1 {
		return fmt.Errorf("-len must be at least 1, got %d", *length)
	}
	camp, err := ofl.start("tracegen", args, *seed, map[string]any{
		"count": *count, "q": *q, "len": *length, "lownoise": *lowNoise,
	})
	if err != nil {
		return err
	}
	defer finishCampaign(camp)

	var dev *core.Device
	if *lowNoise {
		dev = core.NewLowNoiseDevice(*seed)
	} else {
		dev = core.NewDevice(*seed)
	}
	const coeffsPerRun = 18
	src, err := core.FirmwareSource(coeffsPerRun, core.FirmwareModulus(*q))
	if err != nil {
		return err
	}
	fw, err := core.AssembleFirmware(src)
	if err != nil {
		return err
	}
	cn := sampler.DefaultClippedNormal()
	prng := sampler.NewXoshiro256(*seed ^ 0x7777)

	set := &trace.Set{}
	for set.Len() < *count {
		values, metas := cn.SamplePoly(prng, coeffsPerRun)
		_, segs, err := dev.SegmentCapture(fw, values, metas)
		if err != nil {
			return err
		}
		for i := 1; i < len(segs)-1 && set.Len() < *count; i++ {
			sub := segs[i].Samples
			var aligned trace.Trace
			if len(sub) >= *length {
				aligned = sub[len(sub)-*length:].Clone()
			} else {
				aligned = sub.Resample(*length)
			}
			set.Append(aligned, int(values[i]))
		}
	}
	if err := writeFile(*out, func(w io.Writer) error { return trace.WriteSet(w, set) }); err != nil {
		return err
	}
	camp.setResult("traces", *count)
	camp.setResult("trace_length", *length)
	camp.setResult("output", *out)
	fmt.Fprintf(stdout, "wrote %d labeled sub-traces (%d samples each) to %s\n", set.Len(), *length, *out)
	return nil
}

// runRvsim implements `revealctl rvsim`, the developer loop for writing
// attack kernels: it assembles a source file, optionally prints the
// disassembly listing, runs the program on the RV32IM simulator, dumps the
// final register file, and can render the power trace of the run to CSV.
func runRvsim(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rvsim", flag.ExitOnError)
	srcPath := fs.String("s", "", "assembly source file (required)")
	disasm := fs.Bool("disasm", false, "print the disassembly listing before running")
	traceOut := fs.String("trace", "", "write the power trace of the run to this CSV file")
	maxInstrs := fs.Int("max", 1000000, "instruction budget")
	memSize := fs.Int("mem", 1<<17, "RAM size in bytes")
	seed := fs.Uint64("seed", 1, "measurement-noise seed for the power trace")
	ofl := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *srcPath == "":
		return fmt.Errorf("missing -s <source.s>")
	case *maxInstrs < 1:
		return fmt.Errorf("-max must be at least 1, got %d", *maxInstrs)
	case *memSize < 1:
		return fmt.Errorf("-mem must be at least 1, got %d", *memSize)
	}
	camp, err := ofl.start("rvsim", args, *seed, map[string]any{
		"source": *srcPath, "max": *maxInstrs, "mem": *memSize,
	})
	if err != nil {
		return err
	}
	defer finishCampaign(camp)

	source, err := os.ReadFile(*srcPath)
	if err != nil {
		return err
	}
	img, labels, err := rv32.Assemble(string(source), 0)
	if err != nil {
		return err
	}
	if *disasm {
		fmt.Fprint(stdout, rv32.DisasmImage(img, 0))
		if len(labels) > 0 {
			names := make([]string, 0, len(labels))
			for name := range labels {
				names = append(names, name)
			}
			sort.Slice(names, func(i, j int) bool {
				if labels[names[i]] != labels[names[j]] {
					return labels[names[i]] < labels[names[j]]
				}
				return names[i] < names[j]
			})
			fmt.Fprintln(stdout, "labels:")
			for _, name := range names {
				fmt.Fprintf(stdout, "  %-20s %#x\n", name, labels[name])
			}
		}
	}

	cpu := rv32.NewCPU(*memSize)
	if err := cpu.Load(img, 0); err != nil {
		return err
	}
	var syn *power.Synthesizer
	if *traceOut != "" {
		syn, err = power.NewSynthesizer(power.DefaultModel(), sampler.NewXoshiro256(*seed), 0)
		if err != nil {
			return err
		}
		cpu.OnEvent = syn.HandleEvent
	}

	sp := obs.StartSpan("simulate")
	executed, err := cpu.Run(*maxInstrs)
	sp.AddItems(executed)
	simTime := sp.End()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "halted after %d instructions, %d cycles\n", executed, cpu.Cycle)
	obs.Log().Info("simulation done", "instructions", executed,
		"cycles", cpu.Cycle, "duration", simTime)
	camp.setResult("instructions", executed)
	camp.setResult("cycles", cpu.Cycle)
	for i := 0; i < 32; i += 4 {
		for j := i; j < i+4; j++ {
			fmt.Fprintf(stdout, "%-5s %08x   ", rv32.ABINames[j], cpu.Regs[j])
		}
		fmt.Fprintln(stdout)
	}

	if syn != nil {
		samples := trace.Trace(syn.Samples())
		if err := writeFile(*traceOut, func(w io.Writer) error { return trace.WriteCSV(w, samples) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "power trace (%d samples) written to %s\n", len(samples), *traceOut)
	}
	return nil
}
