package eval

import (
	"math"
	"math/rand"
	"testing"

	"strgindex/internal/dist"
)

func TestErrorRatePerfect(t *testing.T) {
	// Permuted cluster IDs, same partition: error 0.
	assignments := []int{2, 2, 0, 0, 1, 1}
	labels := []int{0, 0, 1, 1, 2, 2}
	got, err := ErrorRate(assignments, labels)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("ErrorRate = %v, want 0", got)
	}
}

func TestErrorRateHalf(t *testing.T) {
	assignments := []int{0, 0, 0, 0}
	labels := []int{0, 0, 1, 1}
	got, err := ErrorRate(assignments, labels)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("ErrorRate = %v, want 50", got)
	}
}

func TestErrorRateMismatchedCounts(t *testing.T) {
	// More clusters than labels and vice versa must still work (padded
	// Hungarian).
	assignments := []int{0, 1, 2, 3}
	labels := []int{0, 0, 1, 1}
	got, err := ErrorRate(assignments, labels)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("ErrorRate = %v, want 50", got)
	}
}

func TestErrorRateErrors(t *testing.T) {
	if _, err := ErrorRate([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ErrorRate(nil, nil); err == nil {
		t.Error("empty clustering accepted")
	}
}

func TestErrorRateBeatsGreedyTrap(t *testing.T) {
	// A case where greedy matching is suboptimal but Hungarian is exact:
	// cluster 0 has 3 of label A and 3 of label B; cluster 1 has 3 of
	// label A only. Optimal: 0->B, 1->A = 6 correct (error 33.3%).
	assignments := []int{0, 0, 0, 0, 0, 0, 1, 1, 1}
	labels := []int{0, 0, 0, 1, 1, 1, 0, 0, 0}
	got, err := ErrorRate(assignments, labels)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1 - 6.0/9.0) * 100; math.Abs(got-want) > 1e-9 {
		t.Errorf("ErrorRate = %v, want %v", got, want)
	}
}

func TestHungarianKnown(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	match := Hungarian(cost)
	// Optimal assignment: 0->1 (1), 1->0 (2), 2->2 (2) = 5.
	var total float64
	seen := map[int]bool{}
	for i, j := range match {
		total += cost[i][j]
		if seen[j] {
			t.Fatalf("column %d assigned twice", j)
		}
		seen[j] = true
	}
	if total != 5 {
		t.Errorf("Hungarian total = %v, want 5 (match %v)", total, match)
	}
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	perms := func(n int) [][]int {
		var out [][]int
		var rec func(cur []int, rest []int)
		rec = func(cur, rest []int) {
			if len(rest) == 0 {
				out = append(out, append([]int(nil), cur...))
				return
			}
			for i := range rest {
				next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
				rec(append(cur, rest[i]), next)
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		rec(nil, idx)
		return out
	}
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Floor(rng.Float64() * 20)
			}
		}
		match := Hungarian(cost)
		var got float64
		for i, j := range match {
			got += cost[i][j]
		}
		best := math.Inf(1)
		for _, p := range perms(n) {
			var tot float64
			for i, j := range p {
				tot += cost[i][j]
			}
			best = math.Min(best, tot)
		}
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: Hungarian %v, brute force %v (cost %v)", trial, got, best, cost)
		}
	}
}

func TestHungarianEmpty(t *testing.T) {
	if got := Hungarian(nil); got != nil {
		t.Errorf("Hungarian(nil) = %v", got)
	}
}

func TestPrecisionRecall(t *testing.T) {
	relevant := map[int]bool{1: true, 2: true, 3: true, 4: true}
	tests := []struct {
		name      string
		retrieved []int
		wantP     float64
		wantR     float64
	}{
		{"perfect", []int{1, 2, 3, 4}, 1, 1},
		{"half precision", []int{1, 2, 8, 9}, 0.5, 0.5},
		{"low recall", []int{1}, 1, 0.25},
		{"duplicates collapse", []int{1, 1, 1}, 1, 0.25},
		{"nothing", nil, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := PrecisionRecall(tt.retrieved, relevant)
			if math.Abs(got.Precision-tt.wantP) > 1e-9 || math.Abs(got.Recall-tt.wantR) > 1e-9 {
				t.Errorf("PR = %+v, want P=%v R=%v", got, tt.wantP, tt.wantR)
			}
		})
	}
	if got := PrecisionRecall([]int{1}, nil); got.Precision != 0 || got.Recall != 0 {
		t.Errorf("PR with no relevant = %+v", got)
	}
}

func TestDistortionZeroWhenDetected(t *testing.T) {
	truth := []dist.Sequence{
		{dist.Vec{0, 0}, dist.Vec{10, 0}},
		{dist.Vec{100, 100}, dist.Vec{100, 110}},
	}
	if got := Distortion(truth, truth); got != 0 {
		t.Errorf("Distortion(x, x) = %v, want 0", got)
	}
}

func TestDistortionGrowsWithDisplacement(t *testing.T) {
	truth := []dist.Sequence{{dist.Vec{0, 0}, dist.Vec{10, 0}}}
	near := []dist.Sequence{{dist.Vec{1, 0}, dist.Vec{11, 0}}}
	far := []dist.Sequence{{dist.Vec{50, 0}, dist.Vec{60, 0}}}
	dNear := Distortion(near, truth)
	dFar := Distortion(far, truth)
	if math.Abs(dNear-1) > 1e-9 {
		t.Errorf("near distortion = %v, want 1", dNear)
	}
	if dFar <= dNear {
		t.Errorf("distortion did not grow: near %v, far %v", dNear, dFar)
	}
}

func TestDistortionEdgeCases(t *testing.T) {
	if got := Distortion(nil, nil); got != 0 {
		t.Errorf("Distortion(nil, nil) = %v", got)
	}
	// No detected centroids at all: treated as zero rather than infinite,
	// keeping sweep plots finite.
	truth := []dist.Sequence{{dist.Vec{0, 0}}}
	if got := Distortion(nil, truth); got != 0 {
		t.Errorf("Distortion(nil, truth) = %v, want 0", got)
	}
}

func TestDistortionDifferentLengths(t *testing.T) {
	truth := []dist.Sequence{{dist.Vec{0, 0}, dist.Vec{10, 0}, dist.Vec{20, 0}}}
	detected := []dist.Sequence{{dist.Vec{0, 0}, dist.Vec{20, 0}}}
	// The straight 2-point line resamples onto the 3-point line exactly.
	if got := Distortion(detected, truth); math.Abs(got) > 1e-9 {
		t.Errorf("Distortion across lengths = %v, want 0", got)
	}
}
