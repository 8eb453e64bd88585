// Countermeasure evaluation (§V-A of the paper): what shuffling the
// sampling order and the SEAL v3.6-style branch-free rewrite each buy
// against the single-trace attack.
package main

import (
	"context"
	"fmt"
	"log"

	"reveal/internal/core"
	"reveal/internal/sampler"
	"reveal/internal/sca"
	"reveal/internal/trace"
)

// attack segments a capture of n coefficients plus the sentinel and
// classifies the n real ones.
func attack(cls *core.CoefficientClassifier, tr trace.Trace, n int) (*core.AttackResult, error) {
	segs, err := trace.NewSegmenter(n+1).Segment(tr, n+1, 8)
	if err != nil {
		return nil, err
	}
	return cls.AttackSegmentsCtx(context.Background(), segs[:n])
}

func main() {
	const (
		q = 132120577
		n = 256
	)
	dev := core.NewDevice(5)
	fmt.Println("profiling the unprotected device...")
	cls, err := core.Profile(dev, core.DefaultProfileOptions())
	if err != nil {
		log.Fatal(err)
	}

	cn := sampler.DefaultClippedNormal()
	values, metas := cn.SamplePoly(sampler.NewXoshiro256(11), n)
	// Sentinel so the last real coefficient segments cleanly.
	values = append(values, 0)
	metas = append(metas, sampler.SampleMeta{})

	// Baseline: unprotected kernel.
	src, err := core.FirmwareSource(n+1, q)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := core.AssembleFirmware(src)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := dev.Capture(fw, values, metas)
	if err != nil {
		log.Fatal(err)
	}
	res, err := attack(cls, tr, n)
	if err != nil {
		log.Fatal(err)
	}
	ok, signOK := 0, 0
	for i := 0; i < n; i++ {
		if int64(res.Values[i]) == values[i] {
			ok++
		}
		if res.Signs[i] == sca.SignOf(int(values[i])) {
			signOK++
		}
	}
	fmt.Printf("\nunprotected kernel:  value accuracy %5.1f%%, sign accuracy %5.1f%%\n",
		100*float64(ok)/float64(n), 100*float64(signOK)/float64(n))

	// Countermeasure 1: shuffling. Values still leak, positions do not.
	trShuf, perm, err := core.CaptureShuffled(dev, fw, values, metas, sampler.NewXoshiro256(13))
	if err != nil {
		log.Fatal(err)
	}
	ev, err := core.EvaluateShuffledAttack(cls, trShuf, values, perm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shuffled sampling:   positional accuracy %5.1f%%, multiset accuracy %5.1f%%\n",
		100*ev.PositionalAccuracy, 100*ev.MultisetAccuracy)
	fmt.Println("                     -> the attacker learns the coefficient *multiset*,")
	fmt.Println("                        but cannot place hints, so DBDD gains ~nothing.")

	// Countermeasure 2: branch-free kernel (SEAL v3.6 style).
	srcBF, err := core.FirmwareBranchless(n+1, q)
	if err != nil {
		log.Fatal(err)
	}
	fwBF, err := core.AssembleFirmware(srcBF)
	if err != nil {
		log.Fatal(err)
	}
	trBF, err := dev.Capture(fwBF, values, metas)
	if err != nil {
		log.Fatal(err)
	}
	resBF, err := attack(cls, trBF, n)
	if err != nil {
		fmt.Printf("branch-free kernel:  attack pipeline fails outright (%v)\n", err)
		return
	}
	okBF, signBF := 0, 0
	for i := 0; i < n; i++ {
		if int64(resBF.Values[i]) == values[i] {
			okBF++
		}
		if resBF.Signs[i] == sca.SignOf(int(values[i])) {
			signBF++
		}
	}
	fmt.Printf("branch-free kernel:  value accuracy %5.1f%%, sign accuracy %5.1f%%\n",
		100*float64(okBF)/float64(n), 100*float64(signBF)/float64(n))
	fmt.Println("                     -> templates trained on the vulnerable kernel")
	fmt.Println("                        no longer transfer (V1 and V3 are gone).")
}
