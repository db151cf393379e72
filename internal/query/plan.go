package query

import (
	"math"
	"sort"

	"strgindex/internal/dist"
	"strgindex/internal/rtree"
	"strgindex/internal/strg"
)

// Source is the data a plan compiles against and executes over: the
// retained Object Graphs plus (optionally) the trajectory R-tree
// maintained at ingest and the metric kernel of the STRG-Index cascade.
// Implementations must present a consistent snapshot for the duration of
// one BuildPlan + Execute pair (core runs both under its read lock).
type Source interface {
	// NumOGs returns the number of retained Object Graphs.
	NumOGs() int
	// OG returns Object Graph i (0 <= i < NumOGs). Callers do not mutate.
	OG(i int) *strg.OG
	// SpatialStats describes the trajectory R-tree: the bounding box of
	// every indexed step and the number of indexed boxes. ok is false
	// when no spatial index is available (disabled, or empty).
	SpatialStats() (bounds rtree.Box, boxes int, ok bool)
	// SpatialCandidates returns the indices of OGs owning at least one
	// step box intersecting b, ascending, plus the tree nodes visited.
	// ok is false when no spatial index is available. The returned slice
	// is the executor's to own — implementations must hand out a fresh
	// (or otherwise unshared) slice per call, as Execute filters it in
	// place.
	SpatialCandidates(b rtree.Box) (ids []int, visited int, ok bool)
	// Ranker prepares q once for the rank stage and returns the
	// evaluator the stage calls per candidate: the key metric between q
	// and OG i's attribute sequence with early-abandoning threshold ub.
	// abandoned reports that the true distance provably exceeds ub (the
	// value is then invalid). Whatever depends only on q — gap costs,
	// scratch rows — is paid here, not per candidate. The evaluator is
	// for one goroutine.
	Ranker(q dist.Sequence) func(i int, ub float64) (d float64, abandoned bool)
}

// Strategy names the access path a plan starts from.
type Strategy string

const (
	// StrategyScan filters every retained OG through the where tree.
	StrategyScan Strategy = "scan"
	// StrategyRTree probes the trajectory R-tree with a box derived from
	// a required spatial/temporal conjunct, then filters only the
	// candidates (a provable superset, so answers match a scan exactly).
	StrategyRTree Strategy = "rtree"
	// StrategyIndex routes a pure-similarity query (no where tree)
	// straight to the STRG-Index lower-bound cascade; the caller executes
	// it (the index lives above this package).
	StrategyIndex Strategy = "index"
	// StrategyApprox routes an opted-in pure-similarity k-NN (mode
	// "approx") to the approximate tier: IVF candidate generation, exact
	// rerank. Never chosen by cost — only an explicit mode selects it,
	// and the executor rejects it cleanly when the tier is disabled.
	StrategyApprox Strategy = "approx"
)

// ApproxSource is optionally implemented by a Source whose database
// carries the approximate similarity tier. ok is false when the tier is
// disabled; the planner then leaves Plan.NProbe at 0 and the executor
// reports the configuration error.
type ApproxSource interface {
	// ApproxStats returns the tier's inverted-list count and the default
	// probe count for queries that do not name one.
	ApproxStats() (nlists, defaultNProbe int, ok bool)
}

// NProbeForRecall maps a recall target in (0, 1] to an IVF probe count
// under a geometric miss-decay model: each additional probed list roughly
// halves the chance the true neighbors were missed, so nprobe grows with
// log(1/(1-target)). A target of 1 probes every list, making the answer
// provably exact (the tier takes every member of a probed list as a
// candidate). A heuristic, not a guarantee — the experiment grid measures
// the real recall curve.
func NProbeForRecall(target float64, nlists int) int {
	if nlists < 1 {
		nlists = 1
	}
	if target >= 1 {
		return nlists
	}
	if target <= 0 {
		return 1
	}
	n := int(math.Ceil(2 * math.Log2(1/(1-target))))
	if n < 1 {
		n = 1
	}
	if n > nlists {
		n = nlists
	}
	return n
}

// Plan is a compiled query: the chosen access path, the residual
// predicate (with its top-level conjuncts reordered cheapest-and-most-
// selective first) and the cost-model bookkeeping that chose it.
type Plan struct {
	Strategy Strategy
	// Rank reports that a similarity rank stage follows the filter.
	Rank bool
	// Probe is the R-tree query box (valid for StrategyRTree) and
	// ProbeSource the DSL name of the conjunct it derives from.
	Probe       rtree.Box
	ProbeSource string
	// EstSelectivity and EstCandidates are the cost model's estimates for
	// the probe (1 and NumOGs for a scan).
	EstSelectivity float64
	EstCandidates  int
	// CostScan and CostRTree are the modeled stage costs (arbitrary
	// units; comparable to each other only).
	CostScan, CostRTree float64
	// NProbe is the resolved IVF probe count (StrategyApprox only; 0
	// when the serving database has the tier disabled) and CostApprox
	// the modeled cost of the probe plus rerank.
	NProbe     int
	CostApprox float64
	// Order lists the residual's top-level conjuncts in evaluation order.
	Order []string
	// residual is the compiled where tree (vacuous truth when nil).
	residual Predicate
}

// Stage cost constants of the cost model, in "one point-in-rect test"
// units. They only need to get the orders of magnitude right: the planner
// compares sums of them, never interprets them absolutely.
const (
	// costPerSample is charged per trajectory sample for predicates that
	// walk the whole centroid sequence.
	costPerSample = 1.0
	// estSamplesPerOG stands in for the unknown mean trajectory length.
	estSamplesPerOG = 32.0
	// costBoxTest is one R-tree box intersection test; a probe touches
	// roughly the matching fraction of all boxes plus their parents.
	costBoxTest = 2.0
	// costConst is the cost of an O(1) predicate (during, longer_than).
	costConst = 1.0
	// costProbeList is ranking one IVF centroid (a Dim-wide L2) and
	// costRerank one candidate's pass through the exact cascade (the
	// lower bounds usually dispose of it before the DP).
	costProbeList = 2.0
	costRerank    = costPerSample * estSamplesPerOG
)

// nodeCost estimates the evaluation cost of one where node per OG.
func nodeCost(n Node) float64 {
	switch v := n.(type) {
	case AndNode:
		return sumCosts(v.Children)
	case OrNode:
		return sumCosts(v.Children)
	case NotNode:
		return nodeCost(v.Child)
	case DuringNode, LengthNode:
		return costConst
	case UTurnNode:
		return costConst * 4 // two segment directions
	default:
		// Everything else walks the centroid sequence.
		return costPerSample * estSamplesPerOG
	}
}

func sumCosts(ns []Node) float64 {
	var c float64
	for _, n := range ns {
		c += nodeCost(n)
	}
	return c
}

// nodeSelectivity estimates the fraction of OGs satisfying one node.
// Spatial and temporal leaves get a geometric estimate against the
// indexed bounds; attribute leaves get fixed priors. Estimates feed the
// conjunct ordering and the scan-vs-rtree decision only — they never
// change answers.
func nodeSelectivity(n Node, bounds rtree.Box, haveBounds bool) float64 {
	switch v := n.(type) {
	case AndNode:
		s := 1.0
		for _, k := range v.Children {
			s *= nodeSelectivity(k, bounds, haveBounds)
		}
		return s
	case OrNode:
		miss := 1.0
		for _, k := range v.Children {
			miss *= 1 - nodeSelectivity(k, bounds, haveBounds)
		}
		return 1 - miss
	case NotNode:
		return 1 - nodeSelectivity(v.Child, bounds, haveBounds)
	case SpatialNode:
		return boxSelectivity(probeBox(n), bounds, haveBounds)
	case WithinNode:
		return boxSelectivity(probeBox(n), bounds, haveBounds)
	case DuringNode:
		return boxSelectivity(probeBox(n), bounds, haveBounds)
	case SpeedNode, AreaNode:
		return 0.5
	case HeadingNode:
		// Tol radians out of pi (absolute angle difference range).
		return math.Min(1, v.Tol/math.Pi)
	case UTurnNode:
		return 0.2
	case LengthNode:
		return 0.5
	default:
		return 1
	}
}

// probeBox derives the R-tree query box a leaf implies: a necessary
// condition for the predicate, so the probe's candidates are a superset
// of its matches. Non-indexable nodes return ok=false.
func probeBox(n Node) rtree.Box {
	inf := math.Inf(1)
	switch v := n.(type) {
	case SpatialNode:
		return rtree.Box{
			Min: [3]float64{v.Rect.Min.X, v.Rect.Min.Y, math.Inf(-1)},
			Max: [3]float64{v.Rect.Max.X, v.Rect.Max.Y, inf},
		}
	case WithinNode:
		return rtree.Box{
			Min: [3]float64{v.Rect.Min.X, v.Rect.Min.Y, float64(v.From)},
			Max: [3]float64{v.Rect.Max.X, v.Rect.Max.Y, float64(v.To)},
		}
	case DuringNode:
		return rtree.Box{
			Min: [3]float64{math.Inf(-1), math.Inf(-1), float64(v.From)},
			Max: [3]float64{inf, inf, float64(v.To)},
		}
	}
	return rtree.Box{}
}

// indexable reports whether probeBox(n) is a necessary condition for n. An
// inverted during window is not: During(from, to) with from > to still
// accepts an OG whose span covers [to, from], while its box — inverted on
// the t axis — intersects nothing.
func indexable(n Node) bool {
	switch v := n.(type) {
	case SpatialNode, WithinNode:
		return true
	case DuringNode:
		return v.From <= v.To
	}
	return false
}

// boxSelectivity is the per-dimension overlap fraction of probe against
// the indexed bounds, multiplied out — the classic uniform-independence
// estimate. It ignores each trajectory's own extent, so it skews low;
// the cost model's box constant absorbs some of that bias and the
// observed per-stage counts in the response stats let an operator see
// the real selectivity.
func boxSelectivity(probe, bounds rtree.Box, haveBounds bool) float64 {
	if !haveBounds {
		return 1
	}
	sel := 1.0
	for d := 0; d < 3; d++ {
		extent := bounds.Max[d] - bounds.Min[d]
		lo := math.Max(probe.Min[d], bounds.Min[d])
		hi := math.Min(probe.Max[d], bounds.Max[d])
		if hi < lo {
			return 0
		}
		if extent <= 0 {
			continue // degenerate dimension: overlap already proven
		}
		frac := (hi - lo) / extent
		if frac < 1 {
			sel *= frac
		}
	}
	return sel
}

// requiredConjuncts returns the leaves that every match must satisfy:
// the flattened top-level And chain. Or/Not subtrees contribute nothing
// (their members are not individually necessary).
func requiredConjuncts(n Node) []Node {
	switch v := n.(type) {
	case AndNode:
		var out []Node
		for _, k := range v.Children {
			out = append(out, requiredConjuncts(k)...)
		}
		return out
	case OrNode, NotNode, nil:
		return nil
	default:
		return []Node{n}
	}
}

// standingProbe returns the tightest probe box among where's required,
// indexable conjuncts — the same necessary-condition argument BuildPlan
// rests a StrategyRTree plan on, for a caller that indexes the queries
// instead of the corpus (a standing query met by each committed OG's step
// boxes). With no corpus bounds to estimate selectivity against, tightest
// means smallest volume once unbounded axes are clamped (rtree.Box.Finite):
// a within window beats a rectangle over all time beats a frame window
// over all space.
func standingProbe(where Node) (box rtree.Box, ok bool) {
	best := math.Inf(1)
	for _, leaf := range requiredConjuncts(where) {
		if !indexable(leaf) {
			continue
		}
		b := probeBox(leaf)
		if v := b.Finite().Volume(); v < best {
			box, best, ok = b, v, true
		}
	}
	return box, ok
}

// BuildPlan compiles a validated query against src: pick the cheapest
// access path under the cost model, and order the residual's top-level
// conjuncts by rejection power (cheapest cost per expected rejection
// first). Plans never change answers — the probe generates a superset
// and the full where tree is re-checked on every candidate.
func BuildPlan(q *Query, src Source) Plan {
	p := Plan{Strategy: StrategyScan, Rank: q.Similar != nil, EstSelectivity: 1}
	if q.Where == nil {
		if q.Similar != nil {
			p.Strategy = StrategyIndex
			p.Rank = false
			if q.Similar.Mode == ModeApprox {
				planApprox(q.Similar, src, &p)
			}
		}
		return p
	}

	bounds, boxes, haveIdx := src.SpatialStats()
	n := src.NumOGs()
	p.EstCandidates = n

	// Residual cost: every candidate runs the full where tree.
	residualCost := nodeCost(q.Where)
	p.CostScan = float64(n) * residualCost

	// Candidate probes: every required, indexable conjunct. The one with
	// the lowest estimated selectivity wins.
	var probe Node
	probeSel := math.Inf(1)
	if haveIdx {
		for _, leaf := range requiredConjuncts(q.Where) {
			if !indexable(leaf) {
				continue
			}
			if sel := boxSelectivity(probeBox(leaf), bounds, true); sel < probeSel {
				probe, probeSel = leaf, sel
			}
		}
	}
	if probe != nil {
		estCand := int(math.Ceil(probeSel * float64(n)))
		p.CostRTree = probeSel*float64(boxes)*costBoxTest +
			float64(estCand)*(costBoxTest+residualCost)
		if p.CostRTree < p.CostScan {
			p.Strategy = StrategyRTree
			p.Probe = probeBox(probe)
			p.ProbeSource = probe.name()
			p.EstSelectivity = probeSel
			p.EstCandidates = estCand
		}
	}

	ordered := orderConjuncts(q.Where, p, bounds, haveIdx)
	p.residual = Compile(ordered)
	if and, ok := ordered.(AndNode); ok {
		p.Order = make([]string, len(and.Children))
		for i, k := range and.Children {
			p.Order[i] = k.name()
		}
	} else {
		p.Order = []string{ordered.name()}
	}
	return p
}

// planApprox switches a pure-similarity plan to the approximate tier.
// The validator already guaranteed k-NN semantics and no where tree; here
// the probe count is resolved — explicit nprobe wins, then a recall
// target through the miss-decay model, then the database default — and
// the cost model fills the envelope the server reports. When the source
// carries no tier, NProbe stays 0 and the executor rejects the plan with
// the configuration error (an explicit mode never silently degrades to a
// different access path).
func planApprox(c *SimilarClause, src Source, p *Plan) {
	p.Strategy = StrategyApprox
	as, ok := src.(ApproxSource)
	if !ok {
		return
	}
	nlists, defNProbe, ok := as.ApproxStats()
	if !ok {
		return
	}
	nprobe := c.NProbe
	switch {
	case nprobe > 0:
	case c.RecallTarget > 0:
		nprobe = NProbeForRecall(c.RecallTarget, nlists)
	default:
		nprobe = defNProbe
	}
	if nprobe < 1 {
		nprobe = 1
	}
	if nprobe > nlists {
		nprobe = nlists
	}
	n := src.NumOGs()
	p.NProbe = nprobe
	p.EstSelectivity = float64(nprobe) / float64(nlists)
	p.EstCandidates = int(math.Ceil(p.EstSelectivity * float64(n)))
	p.CostApprox = float64(nlists)*costProbeList + float64(p.EstCandidates)*costRerank
	p.CostScan = float64(n) * costRerank
}

// orderConjuncts reorders a top-level And's children by ascending
// cost-per-rejection — the cheapest way to dispose of a non-match runs
// first. Predicates are pure, so reordering cannot change answers. When
// the plan probes the R-tree, the probe's own conjunct is demoted (its
// candidates mostly satisfy it already).
func orderConjuncts(n Node, p Plan, bounds rtree.Box, haveBounds bool) Node {
	and, ok := n.(AndNode)
	if !ok || len(and.Children) < 2 {
		return n
	}
	type scored struct {
		n    Node
		rank float64
		pos  int
	}
	kids := make([]scored, len(and.Children))
	for i, k := range and.Children {
		sel := nodeSelectivity(k, bounds, haveBounds)
		if p.Strategy == StrategyRTree && indexable(k) && probeBox(k) == p.Probe {
			// Conditional selectivity given the probe: candidates nearly
			// always satisfy the conjunct the probe derives from.
			sel = math.Max(sel, 0.9)
		}
		// Cost per expected rejection; a conjunct that rejects nothing
		// (sel ~ 1) is pure overhead and sorts last.
		kids[i] = scored{n: k, rank: nodeCost(k) / math.Max(1e-9, 1-sel), pos: i}
	}
	sort.SliceStable(kids, func(a, b int) bool { return kids[a].rank < kids[b].rank })
	out := AndNode{Children: make([]Node, len(kids))}
	for i, k := range kids {
		out.Children[i] = k.n
	}
	return out
}
