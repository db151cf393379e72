package dist

import "math"

// This file implements the filter side of the filter-and-refine cascade:
// cheap admissible lower bounds on the O(mn) DP distances, plus the
// per-sequence Summary they are computed from. A bound LB is admissible
// when LB(a, b) <= d(a, b) in exact arithmetic; search code prunes a
// candidate only when its bound strictly exceeds the current pruning
// threshold, so admissibility makes the cascade result-preserving.
//
// Three bound tiers, cheapest first:
//
//  1. Gap-sum (EGED_M family, O(1) from summaries): with A = Σ|a_i − g|
//     and B = Σ|b_j − g|, every alignment pays |a_i − b_j| >= ||a_i − g| −
//     |b_j − g|| for a match (triangle inequality) and exactly the gap
//     norm for a gap, so EGED_M(a, b) >= |A − B|.
//  2. Ends (LB_Kim style, O(1)): the first edit operation consumes a_0 or
//     b_0 and the last consumes a_{m−1} or b_{n−1}; each costs at least
//     the cheapest of its three choices (match or either gap).
//  3. Envelope (LB_Keogh style, O(m·dim) with an O(1)-size precomputed
//     Box): every a_i is either matched to some b_j — costing at least the
//     distance from a_i to b's bounding box — or gapped at cost |a_i − g|,
//     so EGED_M(a, b) >= Σ_i min(boxDist(a_i, Box_b), |a_i − g|).
//
// The Cascade interface bundles a metric with its bounds and its
// threshold-aware kernel; the index stores one Summary per leaf record at
// build time and runs the cascade per candidate at search time.

// Box is the axis-aligned bounding box of a sequence's vectors — the
// per-sequence envelope precomputed at index-build time. The zero value
// (nil Min/Max) denotes the box of an empty sequence.
type Box struct {
	Min, Max Vec
}

// boxDist returns the Euclidean distance from v to the box — 0 when v is
// inside. For any u in the box, boxDist(v) <= |v − u| holds coordinate by
// coordinate (the clamped offset never exceeds |v_k − u_k|), and the float
// operations are monotone, so the inequality holds bit-for-bit.
func (b Box) boxDist(v Vec) float64 {
	var sum float64
	for k := range v {
		d := 0.0
		if v[k] < b.Min[k] {
			d = b.Min[k] - v[k]
		} else if v[k] > b.Max[k] {
			d = v[k] - b.Max[k]
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Summary is the per-sequence precomputation of the lower-bound cascade:
// O(1) storage per sequence, computed once at index-build (or query) time.
type Summary struct {
	// Len is the sequence length.
	Len int
	// GapSum is Σ|x − g| over the sequence under the cascade's constant
	// gap (EGED_M family; 0 for cascades without a gap model).
	GapSum float64
	// Box is the sequence's envelope (nil Min/Max for an empty sequence).
	Box Box
}

// summarizeBox computes the bounding box of s (zero Box for empty s).
func summarizeBox(s Sequence) Box {
	if len(s) == 0 {
		return Box{}
	}
	min := s[0].Clone()
	max := s[0].Clone()
	for _, v := range s[1:] {
		for k := range v {
			if v[k] < min[k] {
				min[k] = v[k]
			}
			if v[k] > max[k] {
				max[k] = v[k]
			}
		}
	}
	return Box{Min: min, Max: max}
}

// gapNorm is |x − g| with a nil g meaning the zero vector — the same
// arithmetic the DP kernels use (Norm against zeroVec produces identical
// bits, since x − 0 == x exactly).
func gapNorm(x, g Vec) float64 {
	if g == nil {
		return normToZero(x, len(x))
	}
	return Norm(x, g)
}

// Cascade bundles a sequence metric with its admissible lower bounds and
// its threshold-aware DP kernel. All methods must be consistent: both
// bounds <= Metric in exact arithmetic, and DistanceUB must return the
// exact Metric value bit-for-bit whenever it does not abandon.
type Cascade interface {
	// Metric is the exact distance.
	Metric(a, b Sequence) float64
	// Summarize precomputes a sequence's Summary.
	Summarize(s Sequence) Summary
	// LBQuick is the O(1) bound from two summaries plus the sequences'
	// end elements.
	LBQuick(a, b Sequence, sa, sb Summary) float64
	// LBEnvelope is the O(len(a)) bound of a against b's envelope.
	LBEnvelope(a Sequence, sb Summary) float64
	// DistanceUB is the early-abandoning kernel: it may stop once the
	// distance is provably above ub. When abandoned is false, d is the
	// exact Metric value; when true, d is an admissible lower bound > ub.
	DistanceUB(a, b Sequence, ub float64) (d float64, abandoned bool)
}

// CompactLBer is an optional Cascade capability: LBQuick computed from
// the candidate's summary and end elements alone, without touching its
// sequence. Batch scanners (the approximate tier's rerank) keep those
// three values in flat per-list arrays, so the admissible quick bound
// runs over sequential memory instead of chasing a pointer per
// candidate. Implementations MUST be bit-identical to
// LBQuick(a, b, sa, sb) whenever bFirst == b[0], bLast == b[len(b)-1]
// and sb == Summarize(b) — prune decisions feed exactness contracts.
type CompactLBer interface {
	LBQuickCompact(a Sequence, sa Summary, bFirst, bLast Vec, sb Summary) float64
}

// EGEDMCascade returns the cascade for the metric Extended Graph Edit
// Distance with constant gap g (nil means the zero vector) — the index's
// default key metric.
func EGEDMCascade(g Vec) Cascade { return egedmCascade{g: g} }

type egedmCascade struct{ g Vec }

func (c egedmCascade) Metric(a, b Sequence) float64 { return EGEDM(a, b, c.g) }

func (c egedmCascade) Summarize(s Sequence) Summary {
	sum := Summary{Len: len(s), Box: summarizeBox(s)}
	// Left-to-right accumulation matches the DP's base-row order, so a
	// distance against an empty sequence equals GapSum bit-for-bit.
	for _, v := range s {
		sum.GapSum += gapNorm(v, c.g)
	}
	return sum
}

func (c egedmCascade) LBQuick(a, b Sequence, sa, sb Summary) float64 {
	lb := math.Abs(sa.GapSum - sb.GapSum)
	if len(a) == 0 || len(b) == 0 {
		return lb
	}
	// First edit operation: match(a_0, b_0), gap a_0, or gap b_0.
	first := math.Min(Norm(a[0], b[0]),
		math.Min(gapNorm(a[0], c.g), gapNorm(b[0], c.g)))
	ends := first
	if len(a) > 1 || len(b) > 1 {
		// Any script consuming max(m, n) >= 2 elements has at least two
		// operations, so the last one is distinct from the first.
		last := math.Min(Norm(a[len(a)-1], b[len(b)-1]),
			math.Min(gapNorm(a[len(a)-1], c.g), gapNorm(b[len(b)-1], c.g)))
		ends += last
	}
	return math.Max(lb, ends)
}

// LBQuickCompact implements CompactLBer: the same operations in the same
// order as LBQuick, reading b's contribution from its ends and summary.
func (c egedmCascade) LBQuickCompact(a Sequence, sa Summary, bFirst, bLast Vec, sb Summary) float64 {
	lb := math.Abs(sa.GapSum - sb.GapSum)
	if len(a) == 0 || sb.Len == 0 {
		return lb
	}
	first := math.Min(Norm(a[0], bFirst),
		math.Min(gapNorm(a[0], c.g), gapNorm(bFirst, c.g)))
	ends := first
	if len(a) > 1 || sb.Len > 1 {
		last := math.Min(Norm(a[len(a)-1], bLast),
			math.Min(gapNorm(a[len(a)-1], c.g), gapNorm(bLast, c.g)))
		ends += last
	}
	return math.Max(lb, ends)
}

func (c egedmCascade) LBEnvelope(a Sequence, sb Summary) float64 {
	var lb float64
	if sb.Len == 0 {
		// Exact: the only script gaps all of a.
		for _, v := range a {
			lb += gapNorm(v, c.g)
		}
		return lb
	}
	for _, v := range a {
		t := sb.Box.boxDist(v)
		if gc := gapNorm(v, c.g); gc < t {
			t = gc
		}
		lb += t
	}
	return lb
}

func (c egedmCascade) DistanceUB(a, b Sequence, ub float64) (float64, bool) {
	return EGEDMUB(a, b, c.g, ub)
}

// ExactOnly wraps an arbitrary Metric as a degenerate Cascade: both
// bounds are 0 (trivially admissible) and DistanceUB never abandons. It
// is the fallback for metrics without known lower bounds — the cascade
// machinery stays in place but every candidate pays the exact distance,
// matching pre-cascade behavior (and preserving wrapped eval counters).
func ExactOnly(m Metric) Cascade { return exactOnly{m: m} }

type exactOnly struct{ m Metric }

func (c exactOnly) Metric(a, b Sequence) float64              { return c.m(a, b) }
func (exactOnly) Summarize(s Sequence) Summary                { return Summary{Len: len(s)} }
func (exactOnly) LBQuick(_, _ Sequence, _, _ Summary) float64 { return 0 }
func (exactOnly) LBEnvelope(_ Sequence, _ Summary) float64    { return 0 }
func (c exactOnly) DistanceUB(a, b Sequence, _ float64) (float64, bool) {
	return c.m(a, b), false
}
