package query

import (
	"fmt"
	"math"

	"strgindex/internal/dist"
	"strgindex/internal/rtree"
	"strgindex/internal/strg"
)

// Matcher is one query compiled for repeated single-OG evaluation — the
// shape a standing query needs: as each commit's OG delta arrives, every
// subscription asks "does this new OG qualify, and how far is it?" without
// re-planning or rescanning the corpus. The where tree is compiled once to
// a closure predicate; the similar clause is prepared once for the batched
// EGED_M kernel (its gap costs hoisted at registration, not per committed
// OG), or keeps its trajectory beside a caller-pinned metric.
type Matcher struct {
	pred Predicate
	// probe is the where tree's standing probe box; hasProbe is false when
	// no required conjunct is indexable.
	probe    rtree.Box
	hasProbe bool
	sim      *SimilarClause
	// Exactly one of bq and metric is set when sim is: bq for the index
	// default metric, metric when the caller pinned its own.
	bq     *dist.BatchQuery
	metric dist.Metric
}

// NewMatcher validates q and compiles it for incremental evaluation under
// metric (the index's key metric; nil means EGED_M with the zero gap, the
// index default). ModeApprox queries are rejected: the approximate tier
// defines its answers against a trained candidate index, which has no
// meaningful single-OG incremental form — standing queries are exact.
func NewMatcher(q *Query, metric dist.Metric) (*Matcher, error) {
	if err := Validate(q); err != nil {
		return nil, err
	}
	if q.Similar != nil && q.Similar.Mode == ModeApprox {
		return nil, fmt.Errorf("query: mode %q cannot stand: incremental evaluation is exact-only", ModeApprox)
	}
	m := &Matcher{pred: Compile(q.Where)}
	m.probe, m.hasProbe = standingProbe(q.Where)
	if q.Similar != nil {
		c := *q.Similar
		c.Trajectory = append(dist.Sequence(nil), q.Similar.Trajectory...)
		m.sim = &c
		if metric == nil {
			m.bq = dist.NewBatchQuery(dist.FromSequence(c.Trajectory), nil)
		} else {
			m.metric = metric
		}
	}
	return m, nil
}

// Match reports whether og satisfies the where tree (vacuously true for a
// pure-similarity query). Safe for concurrent use.
func (m *Matcher) Match(og *strg.OG) bool { return m.pred(og) }

// ProbeBox returns an (x, y, t) box that at least one of an OG's per-step
// boxes (rtree.StepBoxes) must intersect for Match to accept the OG — a
// necessary condition only; Match still decides. ok is false when the where
// tree implies none (no where tree, an Or/Not root, attribute predicates
// only): such a query has to meet every OG.
func (m *Matcher) ProbeBox() (box rtree.Box, ok bool) { return m.probe, m.hasProbe }

// Distance returns the metric distance from the similar clause's trajectory
// to an OG's attribute sequence in columnar form — one block serves every
// subscription that meets the OG. Under the default metric the value is
// dist.EGEDMZero's, bit for bit. It panics for a query with no similar
// clause — check HasSimilar. Safe for concurrent use.
func (m *Matcher) Distance(og dist.Block) float64 {
	d, _ := m.DistanceUB(og, math.Inf(1))
	return d
}

// DistanceUB is Distance with an early-abandoning threshold: when abandoned
// is true the true distance provably exceeds ub and d is only a lower bound
// on it; otherwise d is Distance's value, bit for bit. A caller-pinned
// metric has no abandoning form and always runs to completion.
func (m *Matcher) DistanceUB(og dist.Block, ub float64) (d float64, abandoned bool) {
	if m.bq != nil {
		return m.bq.DistanceUB(og, ub)
	}
	return m.metric(m.sim.Trajectory, og.Sequence()), false
}

// K returns the k-NN result bound (0 for range or predicate-only queries).
func (m *Matcher) K() int {
	if m.sim == nil {
		return 0
	}
	return m.sim.K
}

// Radius returns the range bound (0 for k-NN or predicate-only queries).
func (m *Matcher) Radius() float64 {
	if m.sim == nil {
		return 0
	}
	return m.sim.Radius
}
