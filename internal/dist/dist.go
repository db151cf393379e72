// Package dist implements the (dis)similarity measures of the paper:
// the Extended Graph Edit Distance (EGED, Definition 9) in its non-metric
// and metric forms, and the clustering baselines it is evaluated against
// — DTW and LCS (Figure 5).
//
// All measures operate on Sequence values: the per-frame node-attribute
// sequences of Object Graphs. Since the paper's edit operations "deal with
// nodes and their attributes rather than edges", an OG enters a distance
// computation as the time-ordered sequence of its node attribute vectors
// (in the experiments: region centroids, matching the trajectory data of
// Section 6.1).
//
// # A note on Definition 9's base cases
//
// Definition 9 literally defines EGED(s, t) for n = 1 as Σ|s_i − g_i|,
// which makes EGED(x, x) non-zero for single-node graphs and contradicts
// the paper's own worked example (it computes EGED({0},{2,2,3}) = 7, i.e.
// Σ|t_i − 0|). We therefore use the standard edit-distance base cases at
// m = 0 / n = 0 — the cost of gapping the whole remaining sequence — which
// the paper itself adopts for the metric variant ("In EGED_M, we include
// the cases that n = 0 and m = 0"). The two variants then differ only in
// the gap model, exactly as in Section 3: the non-metric EGED uses the
// adaptive gap g_i = (v_{i−1}+v_i)/2 (local time shifting), the metric
// EGED_M a fixed constant gap (Theorem 2).
package dist

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Vec is one node-attribute value ν(v): a point in a low-dimensional
// feature space (dimension 2 — the region centroid — throughout the
// experiments).
type Vec []float64

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Norm returns the Euclidean distance |a − b|. It panics if the dimensions
// differ: sequences entering one distance computation must share a feature
// space, and a mismatch is a programming error. (CrossMatrix recovers
// that panic and surfaces it as an error, so a bad sequence poisons one
// matrix computation instead of crashing a worker pool.)
func Norm(a, b Vec) float64 {
	return math.Sqrt(NormSq(a, b))
}

// NormSq returns the squared Euclidean distance |a − b|². Comparisons that
// only rank distances — nearest-centroid argmins, the eps thresholds of
// LCS/EDR — use NormSq to skip the redundant math.Sqrt, since x ↦ x² is
// monotone on distances. Same dimension-mismatch panic as Norm.
func NormSq(a, b Vec) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("dist: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// Sequence is a time-ordered sequence of attribute vectors — the signal of
// one Object Graph.
type Sequence []Vec

// Dim returns the dimensionality of the sequence's vectors (0 for empty).
func (s Sequence) Dim() int {
	if len(s) == 0 {
		return 0
	}
	return len(s[0])
}

// Clone returns a deep copy of s.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	for i, v := range s {
		out[i] = v.Clone()
	}
	return out
}

// Resample linearly resamples s to exactly n samples, uniform in index.
// It panics if s is empty or n < 1.
func Resample(s Sequence, n int) Sequence {
	if len(s) == 0 {
		panic("dist: Resample of empty sequence")
	}
	if n < 1 {
		panic("dist: Resample to fewer than 1 sample")
	}
	out := make(Sequence, n)
	if n == 1 || len(s) == 1 {
		for i := range out {
			out[i] = s[0].Clone()
		}
		return out
	}
	d := s.Dim()
	scale := float64(len(s)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		pos := float64(i) * scale
		lo := int(pos)
		if lo >= len(s)-1 {
			out[i] = s[len(s)-1].Clone()
			continue
		}
		t := pos - float64(lo)
		v := make(Vec, d)
		for k := 0; k < d; k++ {
			v[k] = s[lo][k]*(1-t) + s[lo+1][k]*t
		}
		out[i] = v
	}
	return out
}

// Metric is a dissimilarity function over sequences. Despite the name, not
// every Metric satisfies the metric axioms — EGED and DTW do not; EGEDM
// does (Theorem 2).
type Metric func(a, b Sequence) float64

// GapModel selects how the cost of editing a node against a gap is
// referenced (Definition 9's g_i).
//
// The paper's worked example (Section 3.1: EGED({1,1},{2,2,3}) = 4,
// EGED({0},{2,2,3}) = 7, EGED({0},{1,1}) = 2) pins the semantics down:
// g_i is interpolated from the OTHER sequence at the current alignment
// position. Gapping a node of one sequence while j nodes of the other have
// been consumed costs the distance to the midpoint (v'_{j-1}+v'_j)/2 — the
// value the other sequence is passing through right there. Referencing the
// gapped sequence itself instead would make deletions inside any constant
// run free and collapse the distance between unrelated steady trajectories.
type GapModel int

const (
	// GapMidpoint is the paper's non-metric model: the gap reference is
	// the midpoint of the other sequence's surrounding values (local time
	// shifting tolerated at half-step cost).
	GapMidpoint GapModel = iota
	// GapPrevious replicates the other sequence's previous value — the
	// DTW-flavored model the paper mentions ("when g_i = v_{i-1}, the
	// cost function is the same as one in DTW").
	GapPrevious
	// GapConstant uses a fixed constant reference (Theorem 2), which makes
	// the distance a metric.
	GapConstant
)

// EGEDWith computes the extended graph edit distance DP under the given
// gap model. g is the constant gap reference (required for GapConstant;
// used as the empty-sequence fallback otherwise — nil means the zero
// vector).
//
// The DP runs over two pooled rolling rows and virtualizes the gap
// reference vectors (see dp.go), so the steady state allocates nothing.
func EGEDWith(a, b Sequence, model GapModel, g Vec) float64 {
	d, _ := EGEDWithUB(a, b, model, g, math.Inf(1))
	return d
}

// EGEDWithUB is the threshold-aware form of EGEDWith: it runs the same DP
// but abandons as soon as the minimum of a completed row exceeds ub.
// Every cost in the DP is non-negative and every alignment path visits
// every row, so the final distance is at least any row's minimum — once a
// row minimum exceeds ub the true distance provably does too.
//
// When abandoned is false, d is the exact distance, bit-for-bit identical
// to EGEDWith (the cutoff only observes row minima; it never changes a
// cell). When abandoned is true, d is the offending row minimum — an
// admissible lower bound on the true distance, which is strictly greater
// than ub. With ub = +Inf the cutoff can never fire (rowMin > +Inf is
// false even for rowMin = +Inf), so the exact path delegates here.
func EGEDWithUB(a, b Sequence, model GapModel, g Vec, ub float64) (d float64, abandoned bool) {
	totalEvals.Add(1)
	m, n := len(a), len(b)
	if m == 0 && n == 0 {
		return 0, false
	}
	dim := a.Dim()
	if dim == 0 {
		dim = b.Dim()
	}
	if model == GapConstant && g == nil {
		g = zeroVec(dim)
	}
	sc := getScratch()
	defer putScratch(sc)
	prev, cur := sc.floatRows(n + 1)
	prev[0] = 0
	for j := 1; j <= n; j++ {
		prev[j] = prev[j-1] + gapCost(model, b[j-1], a, 0, dim, g)
	}
	for i := 1; i <= m; i++ {
		cur[0] = prev[0] + gapCost(model, a[i-1], b, 0, dim, g)
		rowMin := cur[0]
		for j := 1; j <= n; j++ {
			match := prev[j-1] + Norm(a[i-1], b[j-1])
			gapA := prev[j] + gapCost(model, a[i-1], b, j, dim, g)
			gapB := cur[j-1] + gapCost(model, b[j-1], a, i, dim, g)
			cur[j] = math.Min(match, math.Min(gapA, gapB))
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		prev, cur = cur, prev
		if rowMin > ub {
			dpCells.Add(int64(n) + int64(i)*int64(n+1))
			return rowMin, true
		}
	}
	dpCells.Add(int64(n) + int64(m)*int64(n+1))
	return prev[n], false
}

// zeroVecs caches the zero gap references for the low dimensions the
// system actually uses, so EGEDM(a, b, nil) does not allocate one per
// call.
var zeroVecs = [...]Vec{0: {}, 1: make(Vec, 1), 2: make(Vec, 2), 3: make(Vec, 3), 4: make(Vec, 4)}

func zeroVec(dim int) Vec {
	if dim < len(zeroVecs) {
		return zeroVecs[dim]
	}
	return make(Vec, dim)
}

// EGED is the non-metric Extended Graph Edit Distance with the adaptive
// midpoint gap, used for matching and clustering (Section 3.1, Section 4).
func EGED(a, b Sequence) float64 {
	return EGEDWith(a, b, GapMidpoint, nil)
}

// EGEDM is the metric Extended Graph Edit Distance with a fixed constant
// gap g (Theorem 2), used as the index key metric. A nil g means the zero
// vector of the sequences' dimension.
func EGEDM(a, b Sequence, g Vec) float64 {
	return EGEDWith(a, b, GapConstant, g)
}

// EGEDMZero is EGEDM with the zero gap, in Metric form.
func EGEDMZero(a, b Sequence) float64 { return EGEDM(a, b, nil) }

// EGEDMUB is the threshold-aware EGED_M kernel (early row abandoning).
func EGEDMUB(a, b Sequence, g Vec, ub float64) (float64, bool) {
	return EGEDWithUB(a, b, GapConstant, g, ub)
}

// EGEDMZeroUB is EGEDMUB with the zero gap.
func EGEDMZeroUB(a, b Sequence, ub float64) (float64, bool) {
	return EGEDMUB(a, b, nil, ub)
}

// DTW is classic Dynamic Time Warping: monotone alignment with repetition,
// no gap penalty. It is not a metric (triangle inequality fails).
// DTW of anything against an empty sequence is +Inf (no alignment exists).
func DTW(a, b Sequence) float64 {
	d, _ := DTWUB(a, b, math.Inf(1))
	return d
}

// DTWUB is the threshold-aware DTW kernel: same abandoning argument as
// EGEDWithUB (warping paths visit every row, per-cell costs are
// non-negative), same exactness contract — with ub = +Inf or when
// abandoned is false the result is bit-identical to DTW.
func DTWUB(a, b Sequence, ub float64) (d float64, abandoned bool) {
	totalEvals.Add(1)
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		if m == 0 && n == 0 {
			return 0, false
		}
		return math.Inf(1), false
	}
	sc := getScratch()
	defer putScratch(sc)
	prev, cur := sc.floatRows(n + 1)
	prev[0] = 0
	for j := 1; j <= n; j++ {
		prev[j] = math.Inf(1)
	}
	for i := 1; i <= m; i++ {
		cur[0] = math.Inf(1)
		rowMin := math.Inf(1)
		for j := 1; j <= n; j++ {
			c := Norm(a[i-1], b[j-1])
			best := prev[j-1]
			if prev[j] < best {
				best = prev[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = c + best
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		prev, cur = cur, prev
		prev[0] = math.Inf(1)
		if rowMin > ub {
			dpCells.Add(int64(i) * int64(n))
			return rowMin, true
		}
	}
	dpCells.Add(int64(m) * int64(n))
	return prev[n], false
}

// LCSLength returns the length of the longest common subsequence of a and
// b, where two samples match when their distance is at most eps.
func LCSLength(a, b Sequence, eps float64) int {
	totalEvals.Add(1)
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return 0
	}
	sc := getScratch()
	defer putScratch(sc)
	prev, cur := sc.intRows(n + 1)
	for j := 0; j <= n; j++ {
		prev[j], cur[j] = 0, 0
	}
	epsSq := math.Inf(-1)
	if eps >= 0 {
		epsSq = eps * eps
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			if NormSq(a[i-1], b[j-1]) <= epsSq {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
		for k := range cur {
			cur[k] = 0
		}
	}
	dpCells.Add(int64(m) * int64(n))
	return prev[n]
}

// LCSDist converts LCS similarity into a dissimilarity in [0, 1]:
// 1 − LCS/min(m, n). Two empty sequences are at distance 0; an empty
// against a non-empty is at distance 1.
func LCSDist(a, b Sequence, eps float64) float64 {
	m, n := len(a), len(b)
	if m == 0 && n == 0 {
		return 0
	}
	if m == 0 || n == 0 {
		return 1
	}
	minLen := m
	if n < minLen {
		minLen = n
	}
	return 1 - float64(LCSLength(a, b, eps))/float64(minLen)
}

// LCSMetric returns LCSDist as a Metric with the given matching epsilon.
func LCSMetric(eps float64) Metric {
	return func(a, b Sequence) float64 { return LCSDist(a, b, eps) }
}

// totalEvals counts every top-level sequence-distance evaluation in the
// process (EGED/EGED_M, DTW, LCS) — the quantity
// the paper's query-cost model treats as the dominant component of query
// time (Section 6.3), now observable at runtime. One atomic add per DP
// call is noise next to the O(mn) kernel it counts.
var totalEvals atomic.Int64

// TotalEvals returns the process-wide number of distance evaluations. The
// HTTP server exposes it as the strg_dist_evals_total metric.
func TotalEvals() int64 { return totalEvals.Load() }

// dpCells counts DP cells actually evaluated by the sequence kernels
// (EGED family, DTW, LCS) — the denominator of the
// filter-and-refine cascade's win: early-abandoned kernels add only the
// rows they completed. One atomic add per kernel call, like totalEvals.
var dpCells atomic.Int64

// DPCells returns the process-wide number of DP cells evaluated. The
// cascade benchmarks report deltas of this counter; the HTTP server
// exposes it as strg_dist_dp_cells_total.
func DPCells() int64 { return dpCells.Load() }

// Counter counts distance evaluations. The paper's query-cost model
// (Section 6.3) takes the number of distance evaluations as the dominant
// component of query time; experiments wrap their metrics with Counted to
// measure it. The count is atomic, so counted metrics remain exact when
// evaluated from the parallel worker pools (CrossMatrix, parallel
// k-NN) — though the experiment harness pins Concurrency to 1 where the
// paper's sequential evaluation counts are being reproduced.
type Counter struct {
	n atomic.Int64
}

// Count returns the number of evaluations so far.
func (c *Counter) Count() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Counted wraps m so each evaluation increments c.
func Counted(m Metric, c *Counter) Metric {
	return func(a, b Sequence) float64 {
		c.n.Add(1)
		return m(a, b)
	}
}
