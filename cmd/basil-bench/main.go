// Command basil-bench regenerates the paper's evaluation tables and
// figures (§6) as text rows. Each experiment id matches a figure; see
// docs/benchmarking.md for the experiment index and recorded
// paper-vs-measured results.
//
// Usage:
//
//	basil-bench -experiment all -scale quick
//	basil-bench -experiment fig4 -scale full
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/benchharness"
	"repro/internal/scenario"
)

func main() {
	exp := flag.String("experiment", "all",
		"experiment id: fig4, fig5a, fig5b, fig5c, fig6a, fig6b, fig7a, fig7b, latency, rates, wire, parallel, durability, checkpoint, metrics, trace, scenarios, all")
	scaleName := flag.String("scale", "quick", "quick or full")
	seed := flag.Int64("seed", 1, "scenario seed (scenarios experiment); every run reproduces from it")
	jsonPath := flag.String("json", "", "write the scenarios experiment's verdicts to this JSON file")
	flag.Parse()

	var scale benchharness.Scale
	switch *scaleName {
	case "quick":
		scale = benchharness.Quick()
	case "full":
		scale = benchharness.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleName)
		os.Exit(2)
	}

	// The experiments "all" runs, in order; each renders its tables.
	type table = benchharness.Table
	one := func(fig func(benchharness.Scale) table) func() []table {
		return func() []table { return []table{fig(scale)} }
	}
	pair := func(a, b table) []table { return []table{a, b} }
	experiments := []struct {
		id  string
		run func() []table
	}{
		{"fig4", func() []table { return pair(benchharness.Fig4(scale)) }},
		{"fig5a", one(benchharness.Fig5a)},
		{"fig5b", one(benchharness.Fig5b)},
		{"fig5c", one(benchharness.Fig5c)},
		{"fig6a", one(benchharness.Fig6a)},
		{"fig6b", one(benchharness.Fig6b)},
		{"fig7a", func() []table { return []table{benchharness.Fig7(scale, false)} }},
		{"fig7b", func() []table { return []table{benchharness.Fig7(scale, true)} }},
		{"latency", func() []table { return []table{benchharness.FigLatency(scale, 500*time.Microsecond)} }},
		{"rates", one(benchharness.CommitRates)},
		{"wire", func() []table { return pair(benchharness.FigWire(scale), benchharness.FigBroadcast(scale)) }},
		{"parallel", one(benchharness.FigParallel)},
		{"durability", one(benchharness.FigDurability)},
		{"checkpoint", one(benchharness.FigCheckpoint)},
		{"metrics", one(benchharness.FigMetrics)},
		{"trace", func() []table { return pair(benchharness.FigTrace(scale)) }},
	}

	out := os.Stdout
	any := false
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		any = true
		fmt.Printf("running %s ...\n", e.id)
		for _, t := range e.run() {
			t.Render(out)
		}
	}
	if strings.EqualFold(*exp, "scenarios") {
		// Not part of "all": the scenario matrix is a minute-long chaos
		// suite with its own verdict output, run deliberately.
		any = true
		fmt.Printf("running scenarios (seed %d) ...\n", *seed)
		results, rep, err := scenario.RunMatrix(scenario.Matrix(), *seed, scenario.DefaultTuning())
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenarios: %v\n", err)
			os.Exit(1)
		}
		t := scenario.FigScenarios(results)
		t.Render(out)
		for _, r := range results {
			if !r.Verdict.Pass {
				for _, c := range r.Verdict.Checks {
					if !c.Ok {
						fmt.Fprintf(out, "  FAIL %s/%s: %s (reproduce: -experiment scenarios -seed %d)\n",
							r.Name, c.Name, c.Detail, r.Seed)
					}
				}
			}
		}
		if *jsonPath != "" {
			if err := scenario.WriteJSON(*jsonPath, rep); err != nil {
				fmt.Fprintf(os.Stderr, "scenarios: write %s: %v\n", *jsonPath, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
