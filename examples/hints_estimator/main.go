// Security estimation with the "LWE with side information" framework
// (Dachman-Soled et al., CRYPTO 2020): how much security SEAL-128 loses as
// side-channel hints accumulate — from nothing, through branch-only
// knowledge (Table IV), to the full per-coefficient hints (Table III).
package main

import (
	"fmt"
	"log"

	"reveal/internal/dbdd"
	"reveal/internal/experiments"
)

func main() {
	const (
		n     = 1024
		q     = 132120577
		sigma = 3.2
	)
	fmt.Printf("SEAL-128 smallest set: n=%d, q=%d, σ=%.1f\n\n", n, q, sigma)

	// The DBDD instance of one simulated encryption, once per hint model;
	// the hinted ones share the error vector the device sampled (seed 42).
	ins, err := experiments.SimulatedInstances(n, q, sigma, 42, "none", "sign", "full")
	if err != nil {
		log.Fatal(err)
	}
	bikz, err := experiments.EstimateBikz(ins...)
	if err != nil {
		log.Fatal(err)
	}
	for i, name := range []string{
		"no hints (honest adversary)",
		"branch hints only (V1)",
		"all coefficients known (full attack)",
	} {
		fmt.Printf("%-42s %8.2f bikz ≈ 2^%.1f\n", name, bikz[i], dbdd.BikzToBits(bikz[i]))
	}

	fmt.Printf("\nsecurity drop: %.2f -> %.2f bikz (signs) -> %.2f bikz (full)\n",
		bikz[0], bikz[1], bikz[2])
	fmt.Println("paper:         382.25 -> 253.29 (signs) -> 12.2 (full)")
	fmt.Println("\nconclusion (matches the paper): signs alone cannot recover the")
	fmt.Println("message; combining the value and negation leakage breaks the scheme.")
}
