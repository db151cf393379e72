package rtree

import (
	"sort"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
)

// TrajectoryIndex indexes object trajectories the 3DR-tree way: each
// per-frame step becomes one small (x, y, t) box, all steps sharing the
// trajectory's payload. Window queries ("what moved through this region
// during this interval") resolve in one Search; similarity queries must
// fall back to candidate generation plus verification, which is the
// inefficiency the paper's introduction calls out.
type TrajectoryIndex[P comparable] struct {
	tree *Tree[P]
	// trajectories retained for the verification stage of SimilarK.
	seqs map[P]dist.Sequence
}

// NewTrajectoryIndex creates an empty index with the given node capacity
// (zero for the default).
func NewTrajectoryIndex[P comparable](maxEntries int) (*TrajectoryIndex[P], error) {
	t, err := New[P](maxEntries)
	if err != nil {
		return nil, err
	}
	return &TrajectoryIndex[P]{tree: t, seqs: make(map[P]dist.Sequence)}, nil
}

// Len returns the number of indexed trajectories.
func (ti *TrajectoryIndex[P]) Len() int { return len(ti.seqs) }

// Insert indexes a trajectory: sample i is taken at time startFrame + i.
func (ti *TrajectoryIndex[P]) Insert(seq dist.Sequence, startFrame int, payload P) {
	ti.seqs[payload] = seq
	for i := 0; i+1 < len(seq); i++ {
		t0 := float64(startFrame + i)
		ti.tree.Insert(NewBox(
			[3]float64{seq[i][0], seq[i][1], t0},
			[3]float64{seq[i+1][0], seq[i+1][1], t0 + 1},
		), payload)
	}
	if len(seq) == 1 {
		t0 := float64(startFrame)
		ti.tree.Insert(NewBox(
			[3]float64{seq[0][0], seq[0][1], t0},
			[3]float64{seq[0][0], seq[0][1], t0},
		), payload)
	}
}

// StepBoxes calls fn with each per-step (x, y, t) box of a centroid path
// sampled at the given frames, in sample order: one box per pair of
// consecutive samples, or a single point box for a one-sample path. It is
// the one decomposition both directions of the probe argument share — the
// database's trajectory index stores these boxes and probes them with a
// query's box; the standing-query engine stores the queries' boxes and
// probes them with these. Consecutive boxes share a sample, so their union
// is connected and covers every sample and the whole frame span.
func StepBoxes(path []geom.Point, frames []int, fn func(Box)) {
	if len(path) == 1 {
		c, f := path[0], float64(frames[0])
		fn(Box{Min: [3]float64{c.X, c.Y, f}, Max: [3]float64{c.X, c.Y, f}})
		return
	}
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		fn(NewBox(
			[3]float64{a.X, a.Y, float64(frames[i-1])},
			[3]float64{b.X, b.Y, float64(frames[i])},
		))
	}
}

// SimilarK approximates a motion-similarity query the only way an
// (x, y, t) R-tree can: generate candidates by probing boxes around the
// query trajectory, then verify every candidate with the metric. It
// returns the k best, the number of metric evaluations spent and the
// number of candidates generated — the costs Figure 7(b)'s STRG-Index
// comparison is about.
func (ti *TrajectoryIndex[P]) SimilarK(seq dist.Sequence, startFrame, k int, slack float64, metric dist.Metric) (payloads []P, metricEvals, candidates int) {
	cand := make(map[P]bool)
	for i := range seq {
		t0 := float64(startFrame + i)
		hits, _ := ti.tree.Search(NewBox(
			[3]float64{seq[i][0] - slack, seq[i][1] - slack, t0 - slack},
			[3]float64{seq[i][0] + slack, seq[i][1] + slack, t0 + slack},
		))
		for _, p := range hits {
			cand[p] = true
		}
	}
	type scored struct {
		p P
		d float64
	}
	results := make([]scored, 0, len(cand))
	for p := range cand {
		results = append(results, scored{p, metric(seq, ti.seqs[p])})
		metricEvals++
	}
	sort.Slice(results, func(i, j int) bool { return results[i].d < results[j].d })
	if len(results) > k {
		results = results[:k]
	}
	for _, r := range results {
		payloads = append(payloads, r.p)
	}
	return payloads, metricEvals, len(cand)
}
