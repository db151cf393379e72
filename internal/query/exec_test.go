package query

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/strg"
)

// bruteFilter is the oracle: every OG index satisfying the where tree,
// ascending.
func bruteFilter(src *fakeSource, n Node) []int {
	pred := Compile(n)
	var out []int
	for i := range src.ogs {
		if pred(src.ogs[i]) {
			out = append(out, i)
		}
	}
	return out
}

// TestExecuteRTreeMatchesScan: for a spread of where trees, the rtree
// plan, the forced scan plan and the brute-force oracle must agree
// exactly — the probe is a superset and the residual re-checks, so the
// strategy can never change answers.
func TestExecuteRTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := newFakeSource(t, scatteredOGs(rng, 400))
	queries := []Node{
		SpatialNode{Kind: SpatialPasses, Rect: geom.Rect{Min: geom.Pt(100, 100), Max: geom.Pt(250, 250)}},
		WithinNode{Rect: geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(500, 500)}, From: 100, To: 400},
		AndNode{Children: []Node{
			SpatialNode{Kind: SpatialStarts, Rect: geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(400, 1000)}},
			DuringNode{From: 0, To: 500},
		}},
		AndNode{Children: []Node{
			SpatialNode{Kind: SpatialPasses, Rect: geom.Rect{Min: geom.Pt(600, 600), Max: geom.Pt(680, 680)}},
			OrNode{Children: []Node{
				SpeedNode{Lo: 0, Hi: 5},
				LengthNode{Min: 4},
			}},
		}},
		NotNode{Child: SpatialNode{Kind: SpatialPasses, Rect: geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(500, 500)}}},
		// An inverted window: During still accepts OGs spanning [to, from],
		// so it must not be offered to the R-tree as a probe.
		DuringNode{From: 404, To: 402},
	}
	for qi, where := range queries {
		q := &Query{Where: where}
		if err := Validate(q); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want := bruteFilter(src, where)

		pIdx := BuildPlan(q, src)
		rIdx, err := Execute(context.Background(), src, q, pIdx)
		if err != nil {
			t.Fatalf("query %d (indexed): %v", qi, err)
		}
		src.noIndex = true
		pScan := BuildPlan(q, src)
		rScan, err := Execute(context.Background(), src, q, pScan)
		src.noIndex = false
		if err != nil {
			t.Fatalf("query %d (scan): %v", qi, err)
		}
		if pScan.Strategy != StrategyScan {
			t.Fatalf("query %d: forced plan strategy = %s", qi, pScan.Strategy)
		}
		if !equalInts(rIdx.Indices, want) {
			t.Errorf("query %d: %s plan = %v, oracle = %v", qi, pIdx.Strategy, rIdx.Indices, want)
		}
		if !equalInts(rScan.Indices, want) {
			t.Errorf("query %d: scan plan = %v, oracle = %v", qi, rScan.Indices, want)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExecuteRankKNN: composed filter-then-rank must equal the brute
// force "filter, compute every distance, sort by (distance, index), take
// k" — including ties, which duplicate trajectories force.
func TestExecuteRankKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ogs := scatteredOGs(rng, 120)
	// Clones of OG 0 at the same coordinates: equal distances, so the
	// (distance, index) tie-break decides.
	for i := 0; i < 4; i++ {
		clone := &strg.OG{
			Centroids: append([]geom.Point(nil), ogs[0].Centroids...),
			Frames:    append([]int(nil), ogs[0].Frames...),
			Sizes:     append([]float64(nil), ogs[0].Sizes...),
		}
		ogs = append(ogs, clone)
	}
	src := newFakeSource(t, ogs)
	traj := dist.Sequence{{500, 500}, {510, 510}, {520, 500}}
	where := DuringNode{From: 0, To: 1 << 30}

	for _, k := range []int{1, 3, 7, 1000} {
		q := &Query{Where: where, Similar: &SimilarClause{Trajectory: traj, K: k}}
		p := BuildPlan(q, src)
		res, err := Execute(context.Background(), src, q, p)
		if err != nil {
			t.Fatal(err)
		}

		ids := bruteFilter(src, where)
		type hit struct {
			id int
			d  float64
		}
		hits := make([]hit, len(ids))
		for i, id := range ids {
			hits[i] = hit{id: id, d: src.exact(traj, id)}
		}
		sort.SliceStable(hits, func(a, b int) bool {
			if hits[a].d != hits[b].d {
				return hits[a].d < hits[b].d
			}
			return hits[a].id < hits[b].id
		})
		if len(hits) > k {
			hits = hits[:k]
		}
		want := make([]RankedMatch, len(hits))
		for i, h := range hits {
			want[i] = RankedMatch{Index: h.id, Distance: h.d}
		}
		if !reflect.DeepEqual(res.Ranked, want) {
			t.Errorf("k=%d: ranked = %v, want %v", k, res.Ranked, want)
		}
	}
}

// TestExecuteRankRange: radius semantics against the brute-force oracle.
func TestExecuteRankRange(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src := newFakeSource(t, scatteredOGs(rng, 200))
	traj := dist.Sequence{{500, 500}, {510, 510}}
	where := SpeedNode{Lo: 0, Hi: 1e9}
	radius := 400.0

	q := &Query{Where: where, Similar: &SimilarClause{Trajectory: traj, Radius: radius}}
	p := BuildPlan(q, src)
	res, err := Execute(context.Background(), src, q, p)
	if err != nil {
		t.Fatal(err)
	}
	var want []RankedMatch
	for _, id := range bruteFilter(src, where) {
		if d := src.exact(traj, id); d <= radius {
			want = append(want, RankedMatch{Index: id, Distance: d})
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].Distance < want[b].Distance })
	if !reflect.DeepEqual(res.Ranked, want) {
		t.Errorf("range = %v, want %v", res.Ranked, want)
	}
	if res.Total != len(want) {
		t.Errorf("total = %d, want %d", res.Total, len(want))
	}
}

// TestExecuteLimitAndStages: the limit truncates after Total is counted,
// and the stage chain's counts are consistent.
func TestExecuteLimitAndStages(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	src := newFakeSource(t, scatteredOGs(rng, 100))
	q := &Query{Where: DuringNode{From: 0, To: 1 << 30}, Limit: 10}
	p := BuildPlan(q, src)
	res, err := Execute(context.Background(), src, q, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) != 10 || res.Total != 100 || !res.Truncated {
		t.Errorf("got %d/%d truncated=%v, want 10/100 true", len(res.Indices), res.Total, res.Truncated)
	}
	if len(res.Stages) < 2 {
		t.Fatalf("stages = %v, want access + filter", res.Stages)
	}
	for i := 1; i < len(res.Stages); i++ {
		if res.Stages[i].In != res.Stages[i-1].Out {
			t.Errorf("stage %d in = %d, want previous out %d", i, res.Stages[i].In, res.Stages[i-1].Out)
		}
	}
	last := res.Stages[len(res.Stages)-1]
	if last.Out != res.Total {
		t.Errorf("final stage out = %d, want total %d", last.Out, res.Total)
	}
}

// TestExecuteCancelled: a done context aborts with its error and no
// partial results.
func TestExecuteCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	src := newFakeSource(t, scatteredOGs(rng, 50))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := &Query{Where: DuringNode{From: 0, To: 1 << 30}}
	if res, err := Execute(ctx, src, q, BuildPlan(q, src)); err != context.Canceled || res != nil {
		t.Errorf("Execute(cancelled) = (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// TestExecuteIndexStrategyRefused: index plans belong to the caller.
func TestExecuteIndexStrategyRefused(t *testing.T) {
	src := newFakeSource(t, scatteredOGs(rand.New(rand.NewSource(26)), 5))
	q := &Query{Similar: &SimilarClause{Trajectory: dist.Sequence{{0, 0}}, K: 1}}
	p := BuildPlan(q, src)
	if p.Strategy != StrategyIndex {
		t.Fatalf("strategy = %s", p.Strategy)
	}
	if _, err := Execute(context.Background(), src, q, p); err == nil {
		t.Error("Execute accepted a StrategyIndex plan")
	}
}
