// Command rvsim is a standalone driver for the RV32IM simulator: it
// assembles a source file, optionally prints the disassembly listing, runs
// the program, dumps the final register file, and can render the power
// trace of the execution to CSV — the developer loop for writing new
// attack kernels.
//
// Usage:
//
//	rvsim -s kernel.s [-disasm] [-trace power.csv] [-max 100000]
//	      [-run-dir DIR] [-log-level LEVEL]
//
// With -run-dir the simulation is archived like a revealctl campaign:
// manifest.json, metrics.txt, run.log and trace.json in DIR.
package main

import (
	"flag"
	"fmt"
	"os"

	"reveal/internal/obs"
	"reveal/internal/power"
	"reveal/internal/rv32"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

func main() {
	src := flag.String("s", "", "assembly source file (required)")
	disasm := flag.Bool("disasm", false, "print the disassembly listing before running")
	traceOut := flag.String("trace", "", "write the power trace of the run to this CSV file")
	maxInstrs := flag.Int("max", 1000000, "instruction budget")
	memSize := flag.Int("mem", 1<<17, "RAM size in bytes")
	seed := flag.Uint64("seed", 1, "measurement-noise seed for the power trace")
	runDir := flag.String("run-dir", "", "archive the simulation: manifest.json, metrics.txt, run.log, trace.json")
	logLevel := flag.String("log-level", "", "enable structured logging of the run (debug, info, warn, error)")
	flag.Parse()

	var archived *obs.Run
	if *runDir != "" {
		var err error
		archived, err = obs.StartRun(*runDir, obs.RunOptions{
			Tool: "rvsim", Command: "simulate", Args: os.Args[1:], Seed: *seed,
			Config:   map[string]any{"source": *src, "max": *maxInstrs, "mem": *memSize},
			LogLevel: obs.ParseLevel(*logLevel),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rvsim:", err)
			os.Exit(1)
		}
	} else if *logLevel != "" {
		obs.SetGlobal(obs.New(obs.Options{Logger: obs.NewLogger(obs.LogOptions{
			Level: obs.ParseLevel(*logLevel), Output: os.Stderr,
		})}))
	}

	err := run(archived, *src, *disasm, *traceOut, *maxInstrs, *memSize, *seed)
	// Finish explicitly: os.Exit skips defers, and the manifest must be
	// sealed on the failure path too.
	if ferr := archived.Finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvsim:", err)
		os.Exit(1)
	}
}

func run(archived *obs.Run, srcPath string, disasm bool, traceOut string, maxInstrs, memSize int, seed uint64) error {
	if srcPath == "" {
		return fmt.Errorf("missing -s <source.s>")
	}
	source, err := os.ReadFile(srcPath)
	if err != nil {
		return err
	}
	img, labels, err := rv32.Assemble(string(source), 0)
	if err != nil {
		return err
	}
	if disasm {
		fmt.Print(rv32.DisasmImage(img, 0))
		if len(labels) > 0 {
			fmt.Println("labels:")
			for name, addr := range labels {
				fmt.Printf("  %-20s %#x\n", name, addr)
			}
		}
	}

	cpu := rv32.NewCPU(memSize)
	if err := cpu.Load(img, 0); err != nil {
		return err
	}

	var syn *power.Synthesizer
	if traceOut != "" {
		syn, err = power.NewSynthesizer(power.DefaultModel(), sampler.NewXoshiro256(seed), 0)
		if err != nil {
			return err
		}
		cpu.OnEvent = syn.HandleEvent
	}

	sp := obs.StartSpan("simulate")
	executed, err := cpu.Run(maxInstrs)
	sp.AddItems(executed)
	simTime := sp.End()
	if err != nil {
		return err
	}
	fmt.Printf("halted after %d instructions, %d cycles\n", executed, cpu.Cycle)
	obs.Log().Info("simulation done", "instructions", executed,
		"cycles", cpu.Cycle, "duration", simTime)
	archived.SetResult("instructions", executed)
	archived.SetResult("cycles", cpu.Cycle)

	abi := []string{"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
		"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
		"s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
		"t3", "t4", "t5", "t6"}
	for i := 0; i < 32; i += 4 {
		for j := i; j < i+4; j++ {
			fmt.Printf("%-5s %08x   ", abi[j], cpu.Regs[j])
		}
		fmt.Println()
	}

	if syn != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, trace.Trace(syn.Samples())); err != nil {
			return err
		}
		fmt.Printf("power trace (%d samples) written to %s\n", len(syn.Samples()), traceOut)
	}
	return nil
}
