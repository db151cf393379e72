// Package eval implements the evaluation measures of Section 6: the
// clustering error rate of Equation 11 (with optimal cluster-to-label
// matching via the Hungarian algorithm), precision and recall for k-NN
// results (Figure 7(c)), and the centroid distortion of Figure 6(c).
package eval

import (
	"fmt"
	"math"

	"strgindex/internal/dist"
)

// ErrorRate computes Equation 11:
//
//	(1 − correctly clustered / total) × 100
//
// "Correctly clustered" is counted under the optimal one-to-one matching of
// cluster IDs to ground-truth labels (Hungarian algorithm over the
// contingency table), so the measure is permutation-invariant.
func ErrorRate(assignments, labels []int) (float64, error) {
	if len(assignments) != len(labels) {
		return 0, fmt.Errorf("eval: %d assignments vs %d labels", len(assignments), len(labels))
	}
	if len(assignments) == 0 {
		return 0, fmt.Errorf("eval: empty clustering")
	}
	correct := matchedAgreement(assignments, labels)
	return (1 - float64(correct)/float64(len(assignments))) * 100, nil
}

// matchedAgreement returns the number of items that land on the diagonal
// of the contingency table under the optimal cluster-to-label matching.
func matchedAgreement(assignments, labels []int) int {
	aIDs := indexOf(assignments)
	lIDs := indexOf(labels)
	n := len(aIDs)
	if len(lIDs) > n {
		n = len(lIDs)
	}
	// cost[i][j] = -count(cluster i, label j); Hungarian minimizes.
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	for idx := range assignments {
		i := aIDs[assignments[idx]]
		j := lIDs[labels[idx]]
		cost[i][j]--
	}
	match := Hungarian(cost)
	total := 0
	for i, j := range match {
		total -= int(cost[i][j])
	}
	return total
}

func indexOf(xs []int) map[int]int {
	out := make(map[int]int)
	for _, x := range xs {
		if _, ok := out[x]; !ok {
			out[x] = len(out)
		}
	}
	return out
}

// Hungarian solves the square assignment problem: given cost[i][j], it
// returns match[i] = j minimizing the total cost. It implements the
// O(n³) Jonker-style shortest augmenting path formulation.
func Hungarian(cost [][]float64) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	const inf = math.MaxFloat64
	// Potentials and matching, 1-indexed internally.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row matched to column j
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	match := make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			match[p[j]-1] = j - 1
		}
	}
	return match
}

// PR is a precision/recall pair.
type PR struct {
	Precision float64
	Recall    float64
}

// PrecisionRecall scores a retrieved set against the relevant universe:
// precision = |retrieved ∩ relevant| / |retrieved|, recall = |retrieved ∩
// relevant| / |relevant|. Set semantics; duplicates in retrieved are
// counted once.
func PrecisionRecall(retrieved []int, relevant map[int]bool) PR {
	if len(retrieved) == 0 || len(relevant) == 0 {
		return PR{}
	}
	seen := make(map[int]bool, len(retrieved))
	hits := 0
	uniq := 0
	for _, r := range retrieved {
		if seen[r] {
			continue
		}
		seen[r] = true
		uniq++
		if relevant[r] {
			hits++
		}
	}
	return PR{
		Precision: float64(hits) / float64(uniq),
		Recall:    float64(hits) / float64(len(relevant)),
	}
}

// Distortion is Figure 6(c)'s measure: the sum over true centroids of the
// distance (mean per-sample pixel distance) to the closest detected
// centroid. A perfect clustering detects every prototype, giving a small
// sum; missed or displaced centroids inflate it.
func Distortion(detected, truth []dist.Sequence) float64 {
	if len(truth) == 0 {
		return 0
	}
	var total float64
	for _, tc := range truth {
		best := math.Inf(1)
		for _, dc := range detected {
			if d := centroidDist(dc, tc); d < best {
				best = d
			}
		}
		if math.IsInf(best, 1) {
			best = 0
		}
		total += best
	}
	return total
}

// centroidDist is the mean per-sample Euclidean distance after resampling
// both centroids to a common length — a pixel-scale displacement measure.
func centroidDist(a, b dist.Sequence) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	ra, rb := dist.Resample(a, n), dist.Resample(b, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += dist.Norm(ra[i], rb[i])
	}
	return sum / float64(n)
}
