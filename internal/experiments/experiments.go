// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each runner returns a structured result with a
// Render method that prints the same rows/series the paper reports; the
// strg-bench binary and the repository's benchmark suite drive them.
//
// Hardware-bound absolute numbers (the paper ran a Pentium 4 at 2.6 GHz)
// are not expected to match; the shapes — which method wins, by what
// factor, where curves cross — are.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"strgindex/internal/cluster"
	"strgindex/internal/dist"
)

// Scale sizes the experiments. The paper's full magnitudes take minutes;
// the quick scale keeps every experiment's shape while staying test-sized.
type Scale struct {
	// StreamDivisor divides the Table 1 per-stream object counts.
	StreamDivisor int
	// Fig5PerPattern is the number of items per synthetic pattern for the
	// clustering experiments (Figures 5 and 6).
	Fig5PerPattern int
	// Fig5Noises are the noise levels swept (fractions, e.g. 0.05).
	Fig5Noises []float64
	// Fig7Sizes are the database sizes for the indexing experiments.
	Fig7Sizes []int
	// Fig7Queries is the number of k-NN queries averaged per measurement.
	Fig7Queries int
	// Fig7Clusters caps K for index construction in Figure 7; the actual
	// K is the dataset's true pattern count (48 at full scale).
	Fig7Clusters int
	// Fig7Patterns restricts the Figure 7 data to the first N synthetic
	// patterns, keeping items-per-cluster sane at reduced scales. Zero
	// means all 48.
	Fig7Patterns int
	// Fig7BuildIter bounds the EM iterations during index construction
	// (Figure 7(a) measures build time; the warm-started EM converges in
	// a handful of iterations). Zero means 8.
	Fig7BuildIter int
	// MaxK bounds the BIC scans of Figure 8 / Table 2.
	MaxK int
	// ServedOGs and ServedQueries size the Section 5.3 occupancy
	// experiment on the served corpus (3 000 OGs is the served size).
	ServedOGs, ServedQueries int
	// EMMaxIter bounds clustering iterations.
	EMMaxIter int
	// Seed drives all randomness.
	Seed int64
	// Workers is the worker budget for the parallel distance engine during
	// clustering and ingest (0 = one per CPU, 1 = sequential). Experiment
	// outputs are identical at every setting; only wall-clock timings
	// change. Paths that report distance-evaluation counts pin their own
	// concurrency to 1 so the paper's sequential cost model is reproduced
	// regardless of this knob.
	Workers int
}

// QuickScale is small enough for tests and CI while preserving every
// experimental shape.
func QuickScale() Scale {
	return Scale{
		StreamDivisor:  8,
		Fig5PerPattern: 4,
		Fig5Noises:     []float64{0.05, 0.15, 0.30},
		Fig7Sizes:      []int{240, 480, 960},
		Fig7Queries:    12,
		Fig7Clusters:   48,
		Fig7BuildIter:  8,
		MaxK:           8,
		ServedOGs:      600,
		ServedQueries:  40,
		EMMaxIter:      25,
		Seed:           1,
	}
}

// FullScale approaches the paper's magnitudes (minutes of runtime).
func FullScale() Scale {
	return Scale{
		StreamDivisor:  1,
		Fig5PerPattern: 10,
		Fig5Noises:     []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30},
		Fig7Sizes:      []int{1000, 2000, 4000, 6000, 8000, 10000},
		Fig7Queries:    50,
		Fig7Clusters:   48,
		Fig7BuildIter:  8,
		MaxK:           15,
		ServedOGs:      3000,
		ServedQueries:  200,
		EMMaxIter:      50,
		Seed:           1,
	}
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render prints the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// clusterAlgo names one clustering algorithm of the Figure 5 grid.
type clusterAlgo struct {
	name string
	run  func(items []dist.Sequence, cfg cluster.Config) (*cluster.Result, error)
}

func clusterAlgos() []clusterAlgo {
	return []clusterAlgo{
		{"EM", cluster.EM},
		{"KM", cluster.KMeans},
		{"KHM", cluster.KHarmonicMeans},
	}
}

// distanceChoice names one distance of the Figure 5 grid. LCS matching
// epsilon: twice the synthetic cluster spread, the scale at which two
// samples of the same pattern count as "common".
type distanceChoice struct {
	name   string
	metric dist.Metric
}

func distanceChoices() []distanceChoice {
	return []distanceChoice{
		{"EGED", dist.EGED},
		{"LCS", dist.LCSMetric(12)},
		{"DTW", dist.DTW},
	}
}

// timed runs f and returns its duration.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
