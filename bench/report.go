package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// repeatFile is what -repeat writes and -compare reads.
type repeatFile struct {
	Env     environment  `json:"env"`
	Seed    int64        `json:"seed"`
	Repeats int          `json:"repeats"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// values collects one metric's readings on one workload.
func (f *repeatFile) values(workload, metric string, perLayer bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload {
			continue
		}
		m := r.EndToEnd
		if perLayer {
			m = r.PerLayer
		}
		if v, ok := m[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// repeatRuns runs every selected workload n times, each on another seed
// (seed, seed+1, …) as the acceptance driver does, prints median and
// quartiles per metric and writes the runs to a result file.
func repeatRuns(ctx context.Context, spec *benchSpec, selected []string, seed int64, n int, outDir string,
	mk func(string, int64) *runCtx) int {
	file := &repeatFile{Seed: seed, Repeats: n}
	status := 0
	for _, name := range selected {
		for i := 0; i < n; i++ {
			rc := mk(name, seed+int64(i))
			res, err := runOne(ctx, rc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			res.print(os.Stderr)
			if !res.Correct {
				status = 1
			}
			file.Env, file.Seconds = res.Env, res.Seconds
			file.Runs = append(file.Runs, res)
		}
	}
	fmt.Printf("\n%-18s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, name := range selected {
		for _, m := range spec.EndToEnd {
			xs := file.values(name, m.Name, false)
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			flag := ""
			if m.Name != "setup_s" && spread(xs) > m.Bound {
				flag = "  spread exceeds the bound"
			}
			fmt.Printf("%-18s %-16s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				name, m.Name, q1, q2, q3, 100*spread(xs), 100*m.Bound, flag)
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("repeat-seed%d-n%d.json", seed, n))
	if err := writeJSONFile(path, file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("\nwrote", path)
	return status
}

func loadRepeatFile(path string) (*repeatFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f repeatFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict applies one metric's bound to two sets of readings of one
// workload: "regressed" when b's median is worse than a's by more than
// the bound, "unresolved" when either set's interquartile spread is wider
// than the bound (unless every reading of b beats every reading of a),
// "unchanged" otherwise.
func verdict(m metricSpec, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma) // lower is better
	if m.Better == "higher" {
		worse = ratio(ma-mb, ma)
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if m.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return "unresolved", worse
		}
	}
	if worse > m.Bound {
		return "regressed", worse
	}
	return "unchanged", worse
}

// compareFiles prints one row per (end-to-end metric, workload) and
// exits non-zero when any row regressed.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	a, err := loadRepeatFile(pathA)
	if err == nil {
		var b *repeatFile
		if b, err = loadRepeatFile(pathB); err == nil {
			return compareSets(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSets(spec *benchSpec, a, b *repeatFile) int {
	if a.Env.NumCPU != b.Env.NumCPU || a.Env.DataDirFS != b.Env.DataDirFS || a.Seconds != b.Seconds {
		fmt.Printf("warning: the two sets differ in host or settings (cpus %d/%d, fs %s/%s, seconds %g/%g)\n",
			a.Env.NumCPU, b.Env.NumCPU, a.Env.DataDirFS, b.Env.DataDirFS, a.Seconds, b.Seconds)
	}
	fmt.Printf("%-18s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse", "bound", "verdict")
	status := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a.values(w.Name, m.Name, false), b.values(w.Name, m.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, worse := verdict(m, xa, xb)
			if v == "regressed" {
				status = 1
			}
			fmt.Printf("%-18s %-16s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, median(xa), median(xb), 100*worse, 100*m.Bound, v)
		}
	}
	return status
}
