package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// testScale is even smaller than QuickScale: experiment tests must stay
// fast while still exercising every code path.
func testScale() Scale {
	return Scale{
		StreamDivisor:  40,
		Fig5PerPattern: 3,
		Fig5Noises:     []float64{0.05, 0.30},
		Fig7Sizes:      []int{120, 240},
		Fig7Queries:    6,
		Fig7Clusters:   48,
		Fig7Patterns:   12,
		MaxK:           6,
		ServedOGs:      240,
		ServedQueries:  10,
		EMMaxIter:      12,
		Seed:           1,
	}
}

func TestFigure5GridComplete(t *testing.T) {
	res, err := Figure5(testScale())
	if err != nil {
		t.Fatal(err)
	}
	// 3 algos x 3 distances x 2 noise levels.
	if len(res.Cells) != 18 {
		t.Fatalf("cells = %d, want 18", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.ErrorRate < 0 || c.ErrorRate > 100 {
			t.Errorf("%s-%s@%v: error rate %v outside [0, 100]", c.Algo, c.Distance, c.Noise, c.ErrorRate)
		}
		if c.BuildTime <= 0 {
			t.Errorf("%s-%s@%v: no build time", c.Algo, c.Distance, c.Noise)
		}
	}
	out := res.RenderPanels()
	for _, want := range []string{"EM-EGED", "KM-LCS", "KHM-DTW", "Figure 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure5EGEDBeatsBaselinesUnderNoise(t *testing.T) {
	// The paper's headline Figure 5 shape: at high noise, EM-EGED has a
	// lower error rate than EM-DTW.
	res, err := Figure5(testScale())
	if err != nil {
		t.Fatal(err)
	}
	eged, _ := res.Cell("EM", "EGED", 0.30)
	dtw, _ := res.Cell("EM", "DTW", 0.30)
	if eged.ErrorRate > dtw.ErrorRate {
		t.Errorf("EM-EGED error %.1f%% exceeds EM-DTW %.1f%% at 30%% noise", eged.ErrorRate, dtw.ErrorRate)
	}
}

func TestFigure6Panels(t *testing.T) {
	scale := testScale()
	grid, err := Figure5(scale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure6(scale, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TimeB) != 15 { // 5 iteration points x 3 algos
		t.Fatalf("TimeB points = %d, want 15", len(res.TimeB))
	}
	out := res.Render()
	for _, want := range []string{"Figure 6(a)", "Figure 6(b)", "Figure 6(c)", "iterations"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	// Build time grows with the iteration budget for EM.
	t2, _ := res.timeFor("EM", 2)
	t16, _ := res.timeFor("EM", 16)
	if t16 <= t2 {
		t.Errorf("EM time did not grow with iterations: %v at 2 vs %v at 16", t2, t16)
	}
}

func TestFigure7Shapes(t *testing.T) {
	res, err := Figure7(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Build) != 6 { // 2 sizes x 3 indexes
		t.Fatalf("build points = %d, want 6", len(res.Build))
	}
	if len(res.KNN) != 18 { // 6 k values x 3 indexes
		t.Fatalf("knn points = %d, want 18", len(res.KNN))
	}
	if len(res.PR) == 0 {
		t.Fatal("no PR points")
	}
	// Headline shape: STRG-Index performs fewer distance computations per
	// query than both M-tree variants at every k.
	for k := 5; k <= 30; k += 5 {
		var strgCost, raCost float64
		for _, p := range res.KNN {
			if p.K != k {
				continue
			}
			switch p.Index {
			case nameSTRG:
				strgCost = p.DistanceEval
			case nameMTRA:
				raCost = p.DistanceEval
			}
		}
		if strgCost >= raCost {
			t.Errorf("k=%d: STRG-Index %v distance evals >= MT-RA %v", k, strgCost, raCost)
		}
	}
	// Precision shape: STRG-Index precision at the cluster-size depth is
	// at least that of MT-RA.
	out := res.Render()
	for _, want := range []string{"Figure 7(a)", "Figure 7(b)", "Figure 7(c)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestStreamExperiments(t *testing.T) {
	scale := testScale()
	streams, err := IngestStreams(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 4 {
		t.Fatalf("streams = %d, want 4", len(streams))
	}
	for _, s := range streams {
		if s.Stats.OGs == 0 {
			t.Fatalf("%s: no OGs extracted", s.Profile.Name)
		}
		if len(s.Seqs) != s.Stats.OGs {
			t.Errorf("%s: %d seqs vs %d OGs", s.Profile.Name, len(s.Seqs), s.Stats.OGs)
		}
		if s.NumClasses() < 2 {
			t.Errorf("%s: only %d classes", s.Profile.Name, s.NumClasses())
		}
		// Size shape: index far smaller than per-frame STRG.
		if s.Stats.IndexBytes*3 > s.Stats.STRGBytes {
			t.Errorf("%s: index %d not well below STRG %d", s.Profile.Name, s.Stats.IndexBytes, s.Stats.STRGBytes)
		}
	}

	t1 := Table1(streams)
	out := t1.Render()
	for _, want := range []string{"Lab1", "Traffic2", "411", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}

	fig8, err := Figure8(streams, scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig8.Curves) != 4 {
		t.Fatalf("curves = %d, want 4", len(fig8.Curves))
	}
	for _, c := range fig8.Curves {
		if c.BestK < 1 || c.BestK > scale.MaxK {
			t.Errorf("%s: BestK = %d outside [1, %d]", c.Stream, c.BestK, scale.MaxK)
		}
	}
	if !strings.Contains(fig8.Render(), "Figure 8") {
		t.Error("Figure 8 render broken")
	}

	t2, err := Table2(streams, fig8, scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4 {
		t.Fatalf("table 2 rows = %d, want 4", len(t2.Rows))
	}
	for _, row := range t2.Rows {
		if row.ErrorRate < 0 || row.ErrorRate > 100 {
			t.Errorf("%s: error rate %v", row.Stream, row.ErrorRate)
		}
		if row.STRGBytes <= row.IndexBytes {
			t.Errorf("%s: STRG %d not larger than index %d", row.Stream, row.STRGBytes, row.IndexBytes)
		}
	}
	if !strings.Contains(t2.Render(), "Table 2") {
		t.Error("Table 2 render broken")
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := Table{
		Title:  "T",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"xxxxx", "1"}},
	}
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("header and separator width differ: %q vs %q", lines[1], lines[2])
	}
}

func TestScalesAreSane(t *testing.T) {
	for _, s := range []Scale{QuickScale(), FullScale()} {
		if s.Fig5PerPattern <= 0 || len(s.Fig7Sizes) == 0 || s.MaxK < 2 {
			t.Errorf("degenerate scale: %+v", s)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		in   int
		want string
	}{
		{100, "100B"},
		{2048, "2.0KB"},
		{3 << 20, "3.0MB"},
	}
	for _, tt := range tests {
		if got := formatBytes(tt.in); got != tt.want {
			t.Errorf("formatBytes(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestAblations(t *testing.T) {
	res, err := Ablations(testScale())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{
		"gap model", "midpoint (paper", "Algorithm 3", "exact",
		"split on", "split off", "STRG-Index", "3DR-tree",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation render missing %q", want)
		}
	}
	if len(res.GapModels.Rows) != 3 {
		t.Errorf("gap model rows = %d, want 3", len(res.GapModels.Rows))
	}
	// The non-metric midpoint gap should not lose to the metric constant
	// gap on noisy data (the reason the paper uses it for clustering).
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscanf(s, "%f%%", &v); err != nil {
			t.Fatalf("bad rate %q", s)
		}
		return v
	}
	midpoint := parse(res.GapModels.Rows[0][1])
	constant := parse(res.GapModels.Rows[2][1])
	if midpoint > constant+10 {
		t.Errorf("midpoint gap error %.1f%% much worse than constant %.1f%%", midpoint, constant)
	}
	// Algorithm 3 must be dramatically cheaper than exact search.
	a3 := res.SearchPolicy.Rows[0][1]
	ex := res.SearchPolicy.Rows[1][1]
	var a3v, exv float64
	fmt.Sscanf(a3, "%f", &a3v)
	fmt.Sscanf(ex, "%f", &exv)
	if a3v >= exv {
		t.Errorf("Algorithm 3 evals %v not below exact %v", a3v, exv)
	}
}

// TestOccupancy: on the served corpus Eq. 8 prefers one cluster at every
// K it is offered, X-means from kMin = 1 stops at 1, and every bound of
// the sweep yields a row whose cluster count falls as the bound grows.
func TestOccupancy(t *testing.T) {
	res, err := Occupancy(testScale())
	if err != nil {
		t.Fatal(err)
	}
	var bic []float64
	for _, row := range res.BIC.Rows {
		var v float64
		fmt.Sscanf(row[1], "%f", &v)
		bic = append(bic, v)
	}
	if len(bic) < 4 {
		t.Fatalf("BIC curve has %d points", len(bic))
	}
	for i, v := range bic[1:] {
		if v >= bic[0] {
			t.Errorf("BIC at K=%s is %.1f, not below K=1's %.1f", res.BIC.Rows[i+1][0], v, bic[0])
		}
	}
	if got := res.XMeans.Rows[0][1]; got != "1" {
		t.Errorf("X-means from kMin 1 chose K=%s, want 1", got)
	}
	if len(res.Bounds.Rows) != len(occupancyBounds) {
		t.Fatalf("%d bound rows, want %d", len(res.Bounds.Rows), len(occupancyBounds))
	}
	prev := 1 << 30
	for _, row := range res.Bounds.Rows {
		var clusters int
		fmt.Sscanf(row[1], "%d", &clusters)
		if clusters > prev {
			t.Errorf("bound %s: %d clusters, more than the smaller bound's %d", row[0], clusters, prev)
		}
		prev = clusters
	}
	if last := res.Bounds.Rows[len(res.Bounds.Rows)-1]; last[1] != "1" || last[5] != "1.00" {
		t.Errorf("unbounded row %v: want one cluster and recall 1.00", last)
	}
}
