package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"strgindex/internal/dist"
	"strgindex/internal/index"
	"strgindex/internal/query"
	"strgindex/internal/rtree"
	"strgindex/internal/strg"
)

// trajIndex is the trajectory R-tree maintained at ingest: each OG's
// centroid path decomposed into per-step (x, y, t) boxes, all carrying
// the OG's ingest ordinal. A step box spans two consecutive samples in
// space and time, so the union of an OG's boxes covers its whole frame
// span — the superset guarantee every planner probe relies on (spatial
// probes use the full t-range, temporal probes the full xy-range, and
// `within` both; see query.probeBox).
type trajIndex struct {
	tree *rtree.Tree[int32]
	// maxID is one past the highest inserted ordinal; candidates uses it
	// to dedup hits with a bitmap instead of sorting (a probe can return
	// many step boxes per OG, and the sort dominated probe cost).
	maxID int
}

func newTrajIndex() *trajIndex {
	t, err := rtree.New[int32](0)
	if err != nil {
		panic(err) // unreachable: default capacity is always valid
	}
	return &trajIndex{tree: t}
}

// insert indexes one OG under its ingest ordinal.
func (ti *trajIndex) insert(id int, og *strg.OG) {
	if og.Len() == 0 {
		return
	}
	if id >= ti.maxID {
		ti.maxID = id + 1
	}
	rtree.StepBoxes(og.Centroids, og.Frames, func(b rtree.Box) { ti.tree.Insert(b, int32(id)) })
}

// probeScratch is the per-probe working set candidates reuses across
// queries: the raw hit buffer and the dedup bitmap. Pooled (not hung off
// trajIndex) because SharedDB runs composed queries concurrently under
// its read lock.
type probeScratch struct {
	hits []int32
	seen []bool
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// candidates returns the distinct OG ordinals owning a box intersecting
// b, ascending, plus the tree nodes visited. Hits arrive one per step
// box; a bitmap over the ordinal space dedups and orders them in O(hits
// + maxID), cheaper than sorting when a probe crosses many step boxes.
func (ti *trajIndex) candidates(b rtree.Box) ([]int, int) {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	var visited int
	sc.hits, visited = ti.tree.SearchAppend(b, sc.hits)
	if len(sc.hits) == 0 {
		return nil, visited
	}
	if cap(sc.seen) < ti.maxID {
		sc.seen = make([]bool, ti.maxID)
	}
	seen := sc.seen[:ti.maxID]
	n := 0
	for _, h := range sc.hits {
		if !seen[h] {
			seen[h] = true
			n++
		}
	}
	ids := make([]int, 0, n)
	for id, ok := range seen {
		if ok {
			ids = append(ids, id)
		}
	}
	// Scrub only the bits this probe set (O(hits), not O(maxID)) so the
	// pooled bitmap comes back clean.
	for _, h := range sc.hits {
		seen[h] = false
	}
	return ids, visited
}

// querySource adapts a VideoDB to the planner's Source interface. It is
// only valid while the database cannot mutate (VideoDB is single-writer;
// SharedDB runs composed queries under its read lock).
type querySource struct{ db *VideoDB }

func (s querySource) NumOGs() int       { return len(s.db.ogs) }
func (s querySource) OG(i int) *strg.OG { return s.db.ogs[i] }

func (s querySource) SpatialStats() (rtree.Box, int, bool) {
	if s.db.traj == nil {
		return rtree.Box{}, 0, false
	}
	b, ok := s.db.traj.tree.Bounds()
	return b, s.db.traj.tree.Len(), ok
}

func (s querySource) SpatialCandidates(b rtree.Box) ([]int, int, bool) {
	if s.db.traj == nil {
		return nil, 0, false
	}
	ids, visited := s.db.traj.candidates(b)
	return ids, visited, true
}

func (s querySource) Ranker(q dist.Sequence) func(i int, ub float64) (float64, bool) {
	return s.db.ranker(q)
}

// ApproxStats implements query.ApproxSource: the planner reads the tier's
// IVF geometry to resolve probe counts and fill the plan envelope.
func (s querySource) ApproxStats() (nlists, defaultNProbe int, ok bool) {
	if s.db.vec == nil {
		return 0, 0, false
	}
	nlists, defaultNProbe = s.db.ApproxLists()
	return nlists, defaultNProbe, true
}

// QueryResult is one executed declarative query: the matches plus the
// plan that produced them and its per-stage accounting. For a plan routed
// through the STRG-Index (pure similarity) Search carries the
// filter-and-refine accounting; planner-executed plans report per-stage
// candidate counts in Stages instead.
type QueryResult struct {
	Matches []Match
	Search  index.SearchStats
	Plan    query.Plan
	Stages  []query.StageStat
	// Approx carries the approximate tier's probe accounting (nil for
	// every other strategy).
	Approx *ApproxInfo
	// Total counts matches before Limit truncation; Limit echoes the
	// effective cap (0 = none).
	Total     int
	Truncated bool
	Limit     int
}

// QueryComposedCtx is the database's one query entry point: it validates,
// plans and executes a declarative query. A pure similarity query routes
// to the STRG-Index lower-bound cascade (k-NN, exact k-NN or range), or to
// the approximate tier when it says mode "approx"; anything with a where
// tree runs the cost-based planner, probing the trajectory R-tree when a
// selective spatial/temporal conjunct makes that cheaper than a scan.
// Plans never change answers — only the work done. A done ctx aborts the
// query with ctx.Err() and no partial results.
func (db *VideoDB) QueryComposedCtx(ctx context.Context, q *query.Query) (*QueryResult, error) {
	if err := query.Validate(q); err != nil {
		return nil, err
	}
	return db.run(ctx, q)
}

// indexOnly reports whether q's plan reads nothing but the index's
// published copy-on-write tree: BuildPlan routes exactly the where-less,
// non-approx similarity queries to StrategyIndex, without consulting the
// source. q must be validated (a where-less query has a similar clause).
func indexOnly(q *query.Query) bool {
	return q.Where == nil && q.Similar.Mode != query.ModeApprox
}

// run plans a validated query and dispatches it to its operator.
func (db *VideoDB) run(ctx context.Context, q *query.Query) (*QueryResult, error) {
	src := querySource{db: db}
	p := query.BuildPlan(q, src)
	res := &QueryResult{Plan: p, Limit: q.Limit}
	var err error
	switch c := q.Similar; p.Strategy {
	case query.StrategyApprox:
		if db.vec == nil {
			return nil, fmt.Errorf("query: mode %q: %w", query.ModeApprox, ErrApproxDisabled)
		}
		res.Matches, res.Search, res.Approx, err = db.searchApprox(ctx, c.Trajectory, c.K, p.NProbe)
	case query.StrategyIndex:
		if c.Radius > 0 {
			res.Matches, res.Search, err = db.searchRange(ctx, c.Trajectory, c.Radius)
		} else {
			res.Matches, res.Search, err = db.searchKNN(ctx, nil, c.Trajectory, c.K, c.Exact)
		}
	default:
		return db.runPlan(ctx, src, q, res)
	}
	if err != nil {
		return nil, err
	}
	query.ObservePlan(p)
	res.Total = len(res.Matches)
	if q.Limit > 0 && res.Total > q.Limit {
		res.Matches = res.Matches[:q.Limit]
		res.Truncated = true
	}
	return res, nil
}

// runPlan is the planned operator: the query executor's scan or R-tree
// access path, residual filter and optional exact rank stage over the
// retained OGs.
func (db *VideoDB) runPlan(ctx context.Context, src querySource, q *query.Query, res *QueryResult) (*QueryResult, error) {
	start := time.Now()
	er, err := query.Execute(ctx, src, q, res.Plan)
	if err != nil {
		return nil, err
	}
	if q.Similar == nil {
		querySelectSeconds.Observe(time.Since(start).Seconds())
	} else {
		queryComposedSeconds.Observe(time.Since(start).Seconds())
	}
	res.Stages, res.Total, res.Truncated = er.Stages, er.Total, er.Truncated
	res.Matches = make([]Match, len(er.Indices))
	for i, id := range er.Indices {
		res.Matches[i] = Match{Record: db.records[id]}
		if er.Ranked != nil {
			res.Matches[i].Distance = er.Ranked[i].Distance
		}
	}
	return res, nil
}

// CheckSpatialIndex cross-checks the trajectory R-tree against the
// retained OGs: structural invariants, full coverage (every OG with
// samples is reachable through a whole-bounds probe) and no phantoms.
// The golden and soak harnesses call it after every mutation batch.
func (db *VideoDB) CheckSpatialIndex() error {
	if db.traj == nil {
		return nil
	}
	if err := db.traj.tree.CheckInvariants(); err != nil {
		return err
	}
	bounds, ok := db.traj.tree.Bounds()
	if !ok {
		if len(db.ogs) > 0 {
			for i, og := range db.ogs {
				if og.Len() > 0 {
					return fmt.Errorf("core: spatial index empty but OG %d has %d samples", i, og.Len())
				}
			}
		}
		return nil
	}
	ids, _ := db.traj.candidates(bounds)
	want := 0
	for _, og := range db.ogs {
		if og.Len() > 0 {
			want++
		}
	}
	if len(ids) != want {
		return fmt.Errorf("core: spatial index covers %d OGs, want %d", len(ids), want)
	}
	for _, id := range ids {
		if id < 0 || id >= len(db.ogs) {
			return fmt.Errorf("core: spatial index holds phantom OG %d (have %d)", id, len(db.ogs))
		}
	}
	return nil
}
