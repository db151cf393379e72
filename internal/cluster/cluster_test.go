package cluster

import (
	"math"
	"math/rand"
	"testing"

	"strgindex/internal/dist"
)

// threeBlobs generates n sequences around three well-separated 1-D
// trajectory prototypes, returning items and ground-truth labels.
func threeBlobs(n int, noise float64, seed int64) ([]dist.Sequence, []int) {
	return threeBlobsLen(n, noise, seed, true)
}

// threeBlobsLen optionally varies sequence lengths. Length variation makes
// the ramp blob genuinely bimodal under EGED (gap costs scale with the
// step size), which is useful for robustness tests but not for BIC model
// recovery.
func threeBlobsLen(n int, noise float64, seed int64, varyLen bool) ([]dist.Sequence, []int) {
	rng := rand.New(rand.NewSource(seed))
	protos := [][]float64{
		{0, 0, 0, 0, 0},
		{100, 100, 100, 100, 100},
		{0, 50, 100, 150, 200},
	}
	items := make([]dist.Sequence, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = c
		length := len(protos[c])
		if varyLen {
			length += rng.Intn(3)
		}
		base := make(dist.Sequence, len(protos[c]))
		for j, v := range protos[c] {
			base[j] = dist.Vec{v + rng.NormFloat64()*noise}
		}
		items[i] = dist.Resample(base, length)
	}
	return items, labels
}

// agreement measures how well assignments recover labels under the best
// greedy cluster-to-label mapping (sufficient for these tiny fixtures).
func agreement(assign, labels []int, k int) float64 {
	counts := make(map[[2]int]int)
	for i := range assign {
		counts[[2]int{assign[i], labels[i]}]++
	}
	usedA, usedL := map[int]bool{}, map[int]bool{}
	correct := 0
	for range make([]struct{}, k) {
		best, bestC := [2]int{-1, -1}, -1
		for key, c := range counts {
			if usedA[key[0]] || usedL[key[1]] {
				continue
			}
			if c > bestC {
				best, bestC = key, c
			}
		}
		if bestC < 0 {
			break
		}
		usedA[best[0]], usedL[best[1]] = true, true
		correct += bestC
	}
	return float64(correct) / float64(len(assign))
}

func TestConfigValidation(t *testing.T) {
	items, _ := threeBlobs(9, 1, 1)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero K", Config{K: 0}},
		{"negative K", Config{K: -2}},
		{"K exceeds items", Config{K: 10}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := EM(items, tt.cfg); err == nil {
				t.Error("EM did not error")
			}
			if _, err := KMeans(items, tt.cfg); err == nil {
				t.Error("KMeans did not error")
			}
			if _, err := KHarmonicMeans(items, tt.cfg); err == nil {
				t.Error("KHarmonicMeans did not error")
			}
		})
	}
	if _, err := EM(nil, Config{K: 1}); err == nil {
		t.Error("EM with no items did not error")
	}
}

func TestEMRecoversBlobs(t *testing.T) {
	items, labels := threeBlobs(60, 2, 42)
	res, err := EM(items, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := agreement(res.Assignments, labels, 3); got < 0.95 {
		t.Errorf("EM agreement = %.2f, want >= 0.95", got)
	}
	if res.Iterations <= 0 {
		t.Error("Iterations not recorded")
	}
	var wsum float64
	for _, w := range res.Weights {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-6 {
		t.Errorf("mixture weights sum to %v, want 1", wsum)
	}
	for _, s := range res.Sigmas {
		if s < sigmaFloor {
			t.Errorf("sigma %v below floor", s)
		}
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	items, labels := threeBlobs(60, 2, 43)
	res, err := KMeans(items, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := agreement(res.Assignments, labels, 3); got < 0.95 {
		t.Errorf("KMeans agreement = %.2f, want >= 0.95", got)
	}
}

func TestKHMRecoversBlobs(t *testing.T) {
	items, labels := threeBlobs(60, 2, 44)
	res, err := KHarmonicMeans(items, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := agreement(res.Assignments, labels, 3); got < 0.95 {
		t.Errorf("KHM agreement = %.2f, want >= 0.95", got)
	}
}

func TestEMWithAlternativeDistances(t *testing.T) {
	items, labels := threeBlobs(45, 2, 45)
	for _, tc := range []struct {
		name string
		m    dist.Metric
	}{
		{"DTW", dist.DTW},
		{"LCS", dist.LCSMetric(10)},
		{"EGEDM", dist.EGEDMZero},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := EM(items, Config{K: 3, Seed: 7, Distance: tc.m})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Assignments) != len(items) {
				t.Fatal("assignment count mismatch")
			}
			_ = labels
		})
	}
}

func TestResultMembers(t *testing.T) {
	items, _ := threeBlobs(12, 1, 46)
	res, err := KMeans(items, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for k := 0; k < 3; k++ {
		total += len(res.Members(k))
	}
	if total != 12 {
		t.Errorf("members across clusters = %d, want 12", total)
	}
}

func TestBarycenterUniform(t *testing.T) {
	items := []dist.Sequence{
		{dist.Vec{0}, dist.Vec{0}},
		{dist.Vec{10}, dist.Vec{10}},
	}
	got := Barycenter(items, []float64{1, 1})
	if len(got) != 2 {
		t.Fatalf("barycenter length = %d, want 2", len(got))
	}
	for _, v := range got {
		if math.Abs(v[0]-5) > 1e-9 {
			t.Errorf("barycenter value = %v, want 5", v[0])
		}
	}
}

func TestBarycenterWeighted(t *testing.T) {
	items := []dist.Sequence{
		{dist.Vec{0}},
		{dist.Vec{10}},
	}
	got := Barycenter(items, []float64{3, 1})
	if math.Abs(got[0][0]-2.5) > 1e-9 {
		t.Errorf("weighted barycenter = %v, want 2.5", got[0][0])
	}
}

func TestBarycenterZeroWeightsFallBackToUniform(t *testing.T) {
	items := []dist.Sequence{
		{dist.Vec{0}},
		{dist.Vec{10}},
	}
	got := Barycenter(items, []float64{0, 0})
	if math.Abs(got[0][0]-5) > 1e-9 {
		t.Errorf("zero-weight barycenter = %v, want 5", got[0][0])
	}
}

func TestBarycenterMedianLength(t *testing.T) {
	items := []dist.Sequence{
		dist.Resample(dist.Sequence{dist.Vec{0}, dist.Vec{10}}, 3),
		dist.Resample(dist.Sequence{dist.Vec{0}, dist.Vec{10}}, 5),
		dist.Resample(dist.Sequence{dist.Vec{0}, dist.Vec{10}}, 9),
	}
	got := Barycenter(items, []float64{1, 1, 1})
	if len(got) != 5 {
		t.Errorf("barycenter length = %d, want weighted median 5", len(got))
	}
}

func TestBarycenterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Barycenter with no items did not panic")
		}
	}()
	Barycenter(nil, nil)
}

func TestBICPrefersTrueK(t *testing.T) {
	items, _ := threeBlobsLen(90, 1, 47, false)
	scan, err := OptimalK(items, 1, 6, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The 1-D EGED mixture measures non-negative distances, so an extra
	// component can always buy a sliver of likelihood by modeling the
	// distance shell; BIC lands within one of the true K. The paper sees
	// the same slack (Table 2: Lab2's found K is off by one).
	if scan.BestK < 3 || scan.BestK > 4 {
		t.Errorf("BestK = %d, want 3 or 4 (BICs: %v)", scan.BestK, scan.BICs)
	}
	// The under-fitted models must be clearly rejected.
	bicAt := func(k int) float64 { return scan.BICs[k-1] }
	if bicAt(3) <= bicAt(1) || bicAt(3) <= bicAt(2) {
		t.Errorf("BIC(3) = %v does not dominate BIC(1) = %v, BIC(2) = %v",
			bicAt(3), bicAt(1), bicAt(2))
	}
	if len(scan.Ks) != 6 || len(scan.BICs) != 6 {
		t.Errorf("scan lengths = %d/%d, want 6", len(scan.Ks), len(scan.BICs))
	}
}

func TestBICPenalizesParameters(t *testing.T) {
	items, _ := threeBlobs(30, 2, 48)
	res, err := EM(items, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b := BIC(res, len(items))
	if b >= res.LogLikelihood {
		t.Errorf("BIC %v not below log-likelihood %v", b, res.LogLikelihood)
	}
	// η = 3K−1 = 8 parameters at K=3 over 30 items.
	want := res.LogLikelihood - 8*math.Log(30)
	if math.Abs(b-want) > 1e-9 {
		t.Errorf("BIC = %v, want %v", b, want)
	}
}

func TestOptimalKValidation(t *testing.T) {
	items, _ := threeBlobs(9, 1, 49)
	if _, err := OptimalK(items, 0, 3, Config{}); err == nil {
		t.Error("kMin 0 did not error")
	}
	if _, err := OptimalK(items, 5, 3, Config{}); err == nil {
		t.Error("kMax < kMin did not error")
	}
	// kMax beyond a third of the item count is clamped (the scan would
	// otherwise run into the K -> M sigma-floor overfit spike).
	scan, err := OptimalK(items, 1, 20, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if scan.Ks[len(scan.Ks)-1] != 3 {
		t.Errorf("kMax not clamped to M/3: %v", scan.Ks)
	}
}

func TestEMDeterministicForSeed(t *testing.T) {
	items, _ := threeBlobs(30, 2, 50)
	a, err := EM(items, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EM(items, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("EM not deterministic for fixed seed")
		}
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	items, _ := threeBlobs(10, 1, 51)
	res, err := KMeans(items, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assignments {
		if a != 0 {
			t.Fatal("K=1 produced non-zero assignment")
		}
	}
	if math.Abs(res.Weights[0]-1) > 1e-9 {
		t.Errorf("K=1 weight = %v, want 1", res.Weights[0])
	}
}

func TestEMKEqualsItems(t *testing.T) {
	// Degenerate: every item its own cluster. Must not crash or produce
	// NaNs.
	items, _ := threeBlobs(6, 1, 52)
	res, err := EM(items, Config{K: 6, Seed: 1, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.LogLikelihood) {
		t.Error("log-likelihood is NaN")
	}
	for _, s := range res.Sigmas {
		if math.IsNaN(s) {
			t.Error("sigma is NaN")
		}
	}
}

func TestLogSumExp(t *testing.T) {
	got := logSumExp([]float64{math.Log(1), math.Log(2), math.Log(3)})
	if math.Abs(got-math.Log(6)) > 1e-9 {
		t.Errorf("logSumExp = %v, want log 6", got)
	}
	if v := logSumExp([]float64{math.Inf(-1), math.Inf(-1)}); !math.IsInf(v, -1) {
		t.Errorf("logSumExp of -Infs = %v, want -Inf", v)
	}
	// Extreme values must not overflow.
	if v := logSumExp([]float64{-1e9, -1e9 + 1}); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("logSumExp underflow produced %v", v)
	}
}
