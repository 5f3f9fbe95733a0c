// Multi-seed campaign sweep: run the calibrated Grid3 production scenario
// across several seeds in parallel — one discrete-event engine per CPU —
// and report Table 1 / §7 milestone quantities as min/mean/max across
// seeds. This is how the reproduction puts error bars on the paper's
// numbers: each seed is an independent 183-day virtual campaign, and
// parallel placement cannot perturb any seed's result (each engine is
// private, so per-seed output is bit-identical to a serial run).
//
// The default 30-day horizon at 5% scale keeps the example quick; pass
// -days 183 -scale 1.0 for full paper-scale campaigns.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"grid3"
)

func main() {
	n := flag.Int("n", 4, "number of seeds to sweep (seeds 1..n)")
	scale := flag.Float64("scale", 0.05, "workload scale factor")
	days := flag.Int("days", 30, "scenario length in days")
	flag.Parse()

	seeds := make([]int64, *n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	rep, err := grid3.Sweep(seeds, *scale,
		grid3.WithHorizon(time.Duration(*days)*24*time.Hour))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	rep.Write(os.Stdout)
	fmt.Println()

	// Per-seed exhibits stay retrievable — here, the first seed's Table 1.
	first := rep.Runs[0]
	fmt.Printf("seed %d exhibits:\n%s", first.Seed, first.Table1Text)
}
