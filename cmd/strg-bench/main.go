// Command strg-bench regenerates every table and figure of the paper's
// evaluation section and prints them as aligned text tables.
//
// Usage:
//
//	strg-bench [-scale quick|full] [-only table1,fig5,fig6,fig7,fig8,table2,occupancy,ablations] [-workers N]
//	strg-bench -grid internal/experiments/grids/approx-1m.json [-grid-out BENCH_approx.json]
//
// The quick scale (default) runs in tens of seconds; full approaches the
// paper's magnitudes and takes minutes.
//
// With -grid, the command instead runs the approximate-tier experiment
// grid described by the JSON spec: bulk-load a synthetic corpus with the
// IVF tier on, establish exact ground truth, sweep the spec's probe
// widths, and print the recall/latency table. -grid-out additionally
// writes the measurements as benchjson points (the format benchjson
// -check enforces floors on).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"strgindex/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	onlyFlag := flag.String("only", "", "comma-separated subset: table1,fig5,fig6,fig7,fig8,table2,occupancy,ablations")
	workers := flag.Int("workers", 0, "worker budget for the parallel distance engine (0 = one per CPU, 1 = sequential); results are identical at every setting")
	gridFlag := flag.String("grid", "", "run the approximate-tier experiment grid from this JSON spec instead of the paper suite")
	gridOut := flag.String("grid-out", "", "with -grid: also write the measurements as benchjson points to this file")
	flag.Parse()

	if *gridFlag != "" {
		spec, err := experiments.LoadApproxGridSpec(*gridFlag)
		fail(err)
		res, err := experiments.ApproxGrid(spec, func(format string, args ...any) {
			fmt.Printf("[grid] "+format+"\n", args...)
		})
		fail(err)
		fmt.Println()
		fmt.Println(res.Render())
		if *gridOut != "" {
			fail(res.WriteBenchJSON(*gridOut))
			fmt.Printf("wrote %s\n", *gridOut)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "strg-bench: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}
	scale.Workers = *workers

	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, name := range strings.Split(*onlyFlag, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	run := func(name string) bool { return len(want) == 0 || want[name] }

	start := time.Now()
	fmt.Printf("STRG-Index experiment suite (scale=%s)\n\n", *scaleFlag)

	var streams []*experiments.StreamData
	needStreams := run("table1") || run("fig8") || run("table2")
	if needStreams {
		var err error
		step := time.Now()
		streams, err = experiments.IngestStreams(scale)
		fail(err)
		fmt.Printf("[ingested 4 streams through the full pipeline in %v]\n\n", time.Since(step).Round(time.Millisecond))
	}

	if run("table1") {
		fmt.Println(experiments.Table1(streams).Render())
	}

	var grid *experiments.Fig5Result
	if run("fig5") || run("fig6") {
		var err error
		grid, err = experiments.Figure5(scale)
		fail(err)
	}
	if run("fig5") {
		fmt.Println(grid.RenderPanels())
	}
	if run("fig6") {
		fig6, err := experiments.Figure6(scale, grid)
		fail(err)
		fmt.Println(fig6.Render())
		fmt.Println()
	}
	if run("fig7") {
		fig7, err := experiments.Figure7(scale)
		fail(err)
		fmt.Println(fig7.Render())
		fmt.Println()
	}

	var fig8 *experiments.Fig8Result
	if run("fig8") || run("table2") {
		var err error
		fig8, err = experiments.Figure8(streams, scale)
		fail(err)
	}
	if run("fig8") {
		fmt.Println(fig8.Render())
	}
	if run("table2") {
		t2, err := experiments.Table2(streams, fig8, scale)
		fail(err)
		fmt.Println(t2.Render())
	}

	if run("occupancy") {
		occ, err := experiments.Occupancy(scale)
		fail(err)
		fmt.Println(occ.Render())
	}

	if run("ablations") {
		abl, err := experiments.Ablations(scale)
		fail(err)
		fmt.Println(abl.Render())
	}

	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "strg-bench: %v\n", err)
		os.Exit(1)
	}
}
