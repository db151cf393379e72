package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// StageStat is one executed plan stage's accounting: candidates in,
// candidates out and wall time. The stage sequence in a Result is the
// response's per-stage cost breakdown.
type StageStat struct {
	Name     string        `json:"name"`
	In       int           `json:"in"`
	Out      int           `json:"out"`
	Duration time.Duration `json:"-"`
}

// RankedMatch is one similarity-ranked hit of a composed query.
type RankedMatch struct {
	// Index is the OG's position in the Source (its ingest ordinal).
	Index    int
	Distance float64
}

// Result is one executed plan.
type Result struct {
	// Indices lists the matching OGs ascending; for a ranked query it
	// lists them in rank order instead (aligned with Ranked).
	Indices []int
	// Ranked carries the distances of a similarity-ranked query; nil for
	// a filter-only query.
	Ranked []RankedMatch
	// Total is the match count before Limit truncation.
	Total     int
	Truncated bool
	Stages    []StageStat
}

// Execute runs a plan built by BuildPlan against the same Source. It
// checks ctx between evaluation chunks; a cancelled execution returns
// ctx.Err() and no partial results. StrategyIndex plans are the caller's
// job (the STRG-Index lives above this package) and return an error.
func Execute(ctx context.Context, src Source, q *Query, p Plan) (*Result, error) {
	if p.Strategy == StrategyIndex || p.Strategy == StrategyApprox {
		return nil, fmt.Errorf("query: %s plans execute through the index, not Execute", p.Strategy)
	}
	res := &Result{Stages: make([]StageStat, 0, 3)}
	n := src.NumOGs()

	// Access stage: candidate OG indices, ascending.
	var cands []int
	switch p.Strategy {
	case StrategyRTree:
		start := time.Now()
		ids, _, ok := src.SpatialCandidates(p.Probe)
		if !ok {
			// The index vanished between planning and execution (it
			// cannot under the read lock, but fail soft, not wrong).
			cands = allIndices(n)
			res.addStage("scan", n, n, time.Since(start))
			break
		}
		cands = ids
		res.addStage(rtreeStageName(p.ProbeSource), n, len(ids), time.Since(start))
	default:
		cands = allIndices(n)
		res.addStage("scan", n, n, 0)
	}

	// Filter stage: the residual predicate over every candidate, written
	// back into the candidate slice (both access paths hand over a fresh
	// slice, and the write cursor never passes the read cursor). The
	// probe generated a superset, so this re-check makes rtree and scan
	// plans answer identically.
	start := time.Now()
	matched := cands[:0]
	for i, id := range cands {
		if i&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if p.residual(src.OG(id)) {
			matched = append(matched, id)
		}
	}
	res.addStage("filter", len(cands), len(matched), time.Since(start))

	if q.Similar == nil {
		res.Total = len(matched)
		if q.Limit > 0 && len(matched) > q.Limit {
			matched = matched[:q.Limit]
			res.Truncated = true
		}
		res.Indices = matched
		observeStages(p, res)
		return res, nil
	}

	// Rank stage: metric distance to the query trajectory over the
	// filtered set, with the cascade's early-abandoning kernel pruning
	// against the current threshold (heap worst for k-NN, the radius for
	// range). Candidates are visited in ascending index order and ties
	// break toward the lower index, so results are deterministic.
	start = time.Now()
	ranked, err := rank(ctx, src, q.Similar, matched)
	if err != nil {
		return nil, err
	}
	res.addStage("rank", len(matched), len(ranked), time.Since(start))
	res.Total = len(ranked)
	if q.Limit > 0 && len(ranked) > q.Limit {
		ranked = ranked[:q.Limit]
		res.Truncated = true
	}
	res.Ranked = ranked
	res.Indices = make([]int, len(ranked))
	for i, r := range ranked {
		res.Indices[i] = r.Index
	}
	observeStages(p, res)
	return res, nil
}

func (r *Result) addStage(name string, in, out int, d time.Duration) {
	r.Stages = append(r.Stages, StageStat{Name: name, In: in, Out: out, Duration: d})
}

// rtreeStageName resolves the access stage's display name without
// concatenating on the hot path: probe sources come from the closed set
// of box-deriving conjuncts, so every name is a constant.
func rtreeStageName(probeSource string) string {
	switch probeSource {
	case "passes_through":
		return "rtree:passes_through"
	case "starts_in":
		return "rtree:starts_in"
	case "ends_in":
		return "rtree:ends_in"
	case "during":
		return "rtree:during"
	case "within":
		return "rtree:within"
	}
	return "rtree:" + probeSource
}

func allIndices(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func rank(ctx context.Context, src Source, c *SimilarClause, ids []int) ([]RankedMatch, error) {
	distanceUB := src.Ranker(c.Trajectory)
	if c.Radius > 0 {
		var hits []RankedMatch
		for i, id := range ids {
			if i&0x3f == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			d, abandoned := distanceUB(id, c.Radius)
			if abandoned || d > c.Radius {
				continue
			}
			hits = append(hits, RankedMatch{Index: id, Distance: d})
		}
		sort.SliceStable(hits, func(a, b int) bool { return hits[a].Distance < hits[b].Distance })
		return hits, nil
	}
	// k-NN: a max-heap of the k best (distance, index) pairs; the kernel
	// abandons strictly above the heap's worst, so a candidate tying the
	// worst is always fully evaluated and the index tie-break is exact.
	h := rankHeap{k: c.K, items: make([]RankedMatch, 0, min(c.K, len(ids))+1)}
	for i, id := range ids {
		if i&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		thresh := math.Inf(1)
		if h.full() {
			thresh = h.worst()
		}
		d, abandoned := distanceUB(id, thresh)
		if abandoned {
			continue
		}
		h.offer(RankedMatch{Index: id, Distance: d})
	}
	return h.sorted(), nil
}

// rankHeap is a max-heap by (distance, index) keeping the k best.
type rankHeap struct {
	k     int
	items []RankedMatch
}

func rankBefore(a, b RankedMatch) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.Index < b.Index
}

func (h *rankHeap) full() bool { return len(h.items) >= h.k }

func (h *rankHeap) worst() float64 {
	if len(h.items) == 0 {
		return math.Inf(1)
	}
	return h.items[0].Distance
}

func (h *rankHeap) offer(m RankedMatch) {
	if h.full() && !rankBefore(m, h.items[0]) {
		return
	}
	h.items = append(h.items, m)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !rankBefore(h.items[parent], h.items[i]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
	if len(h.items) > h.k {
		h.pop()
	}
}

func (h *rankHeap) pop() RankedMatch {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < last && rankBefore(h.items[largest], h.items[l]) {
			largest = l
		}
		if r < last && rankBefore(h.items[largest], h.items[r]) {
			largest = r
		}
		if largest == i {
			break
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
	return top
}

func (h *rankHeap) sorted() []RankedMatch {
	out := make([]RankedMatch, len(h.items))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h.pop()
	}
	return out
}
