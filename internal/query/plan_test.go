package query

import (
	"math"
	"math/rand"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/rtree"
	"strgindex/internal/strg"
)

// fakeSource is an in-memory Source over synthetic OGs with the same
// trajectory R-tree layout core maintains (per-step boxes keyed by OG
// ordinal). noIndex simulates a database without the spatial index.
type fakeSource struct {
	ogs     []*strg.OG
	tree    *rtree.Tree[int32]
	noIndex bool
}

func newFakeSource(t *testing.T, ogs []*strg.OG) *fakeSource {
	t.Helper()
	tree, err := rtree.New[int32](0)
	if err != nil {
		t.Fatal(err)
	}
	for id, og := range ogs {
		rtree.StepBoxes(og.Centroids, og.Frames, func(b rtree.Box) { tree.Insert(b, int32(id)) })
	}
	return &fakeSource{ogs: ogs, tree: tree}
}

func (s *fakeSource) NumOGs() int       { return len(s.ogs) }
func (s *fakeSource) OG(i int) *strg.OG { return s.ogs[i] }

func (s *fakeSource) SpatialStats() (rtree.Box, int, bool) {
	if s.noIndex {
		return rtree.Box{}, 0, false
	}
	b, ok := s.tree.Bounds()
	return b, s.tree.Len(), ok
}

func (s *fakeSource) SpatialCandidates(b rtree.Box) ([]int, int, bool) {
	if s.noIndex {
		return nil, 0, false
	}
	hits, visited := s.tree.Search(b)
	seen := map[int32]bool{}
	var ids []int
	for _, h := range hits {
		if !seen[h] {
			seen[h] = true
			ids = append(ids, int(h))
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids, visited, true
}

// Ranker binds q to distanceUB.
func (s *fakeSource) Ranker(q dist.Sequence) func(i int, ub float64) (float64, bool) {
	return func(i int, ub float64) (float64, bool) { return s.distanceUB(q, i, ub) }
}

// distanceUB sums pointwise Euclidean distances over the shorter prefix
// plus a per-extra-sample penalty — a cheap true metric stand-in. It
// abandons (soundly) when the running sum exceeds ub.
func (s *fakeSource) distanceUB(q dist.Sequence, i int, ub float64) (float64, bool) {
	og := s.ogs[i]
	var d float64
	n := len(q)
	if og.Len() < n {
		n = og.Len()
	}
	for j := 0; j < n; j++ {
		dx := q[j][0] - og.Centroids[j].X
		dy := q[j][1] - og.Centroids[j].Y
		d += math.Sqrt(dx*dx + dy*dy)
	}
	d += 10 * float64(len(q)+og.Len()-2*n)
	if d > ub {
		return d, true
	}
	return d, false
}

// exact is distanceUB without abandoning, for brute-force oracles.
func (s *fakeSource) exact(q dist.Sequence, i int) float64 {
	d, _ := s.distanceUB(q, i, math.Inf(1))
	return d
}

// lineOG builds a straight-line OG from (x0,y0) to (x1,y1) over frames
// [f0, f0+n).
func lineOG(x0, y0, x1, y1 float64, f0, n int) *strg.OG {
	og := &strg.OG{}
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		og.Centroids = append(og.Centroids, geom.Pt(x0+t*(x1-x0), y0+t*(y1-y0)))
		og.Frames = append(og.Frames, f0+i)
		og.Sizes = append(og.Sizes, 100)
	}
	return og
}

// scatteredOGs spreads n short random walks over [0,1000]² and frames
// [0, 1000].
func scatteredOGs(rng *rand.Rand, n int) []*strg.OG {
	ogs := make([]*strg.OG, n)
	for i := range ogs {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		f0 := rng.Intn(900)
		og := &strg.OG{}
		for j := 0; j < 8; j++ {
			og.Centroids = append(og.Centroids, geom.Pt(x, y))
			og.Frames = append(og.Frames, f0+j)
			og.Sizes = append(og.Sizes, 50+rng.Float64()*100)
			x += rng.Float64()*20 - 10
			y += rng.Float64()*20 - 10
		}
		ogs[i] = og
	}
	return ogs
}

func TestPlanSelectiveSpatialUsesRTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := newFakeSource(t, scatteredOGs(rng, 300))
	q := &Query{Where: AndNode{Children: []Node{
		SpatialNode{Kind: SpatialPasses, Rect: geom.Rect{Min: geom.Pt(100, 100), Max: geom.Pt(140, 140)}},
		SpeedNode{Lo: 0, Hi: math.Inf(1)},
	}}}
	if err := Validate(q); err != nil {
		t.Fatal(err)
	}
	p := BuildPlan(q, src)
	if p.Strategy != StrategyRTree {
		t.Fatalf("strategy = %s, want rtree (sel=%g scan=%g rtree=%g)",
			p.Strategy, p.EstSelectivity, p.CostScan, p.CostRTree)
	}
	if p.ProbeSource != "passes_through" {
		t.Errorf("probe source = %q, want passes_through", p.ProbeSource)
	}
	if p.EstCandidates >= src.NumOGs() {
		t.Errorf("est candidates = %d, want < %d", p.EstCandidates, src.NumOGs())
	}
	if p.CostRTree >= p.CostScan {
		t.Errorf("cost rtree %g >= cost scan %g", p.CostRTree, p.CostScan)
	}
	// The probe's own conjunct is demoted: its candidates mostly satisfy
	// it already, so the cheaper-per-rejection speed test runs first.
	if len(p.Order) != 2 || p.Order[0] != "speed" {
		t.Errorf("order = %v, want speed first", p.Order)
	}
}

func TestPlanNonSelectiveSpatialScans(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := newFakeSource(t, scatteredOGs(rng, 300))
	q := &Query{Where: SpatialNode{
		Kind: SpatialPasses,
		Rect: geom.Rect{Min: geom.Pt(-1e6, -1e6), Max: geom.Pt(1e6, 1e6)},
	}}
	p := BuildPlan(q, src)
	if p.Strategy != StrategyScan {
		t.Errorf("strategy = %s, want scan for a bounds-covering rect", p.Strategy)
	}
	if p.EstSelectivity != 1 {
		t.Errorf("est selectivity = %g, want 1", p.EstSelectivity)
	}
}

func TestPlanWithoutIndexScans(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := newFakeSource(t, scatteredOGs(rng, 100))
	src.noIndex = true
	q := &Query{Where: SpatialNode{
		Kind: SpatialPasses,
		Rect: geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)},
	}}
	if p := BuildPlan(q, src); p.Strategy != StrategyScan {
		t.Errorf("strategy = %s, want scan without a spatial index", p.Strategy)
	}
}

func TestPlanPureSimilarRoutesToIndex(t *testing.T) {
	src := newFakeSource(t, []*strg.OG{lineOG(0, 0, 100, 0, 0, 8)})
	q := &Query{Similar: &SimilarClause{Trajectory: dist.Sequence{{0, 0}, {1, 1}}, K: 3}}
	p := BuildPlan(q, src)
	if p.Strategy != StrategyIndex {
		t.Errorf("strategy = %s, want index for a pure similarity query", p.Strategy)
	}
	if p.Rank {
		t.Error("Rank = true, want false (the index ranks itself)")
	}
}

func TestPlanOrderPutsCheapSelectiveFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := newFakeSource(t, scatteredOGs(rng, 200))
	// during is O(1) and moderately selective; u_turn walks the sequence.
	// The window is wide enough that a probe cannot beat the scan, so
	// during keeps its geometric selectivity and must evaluate first (a
	// selective window would become the probe and be demoted instead —
	// see the selective-spatial test).
	q := &Query{Where: AndNode{Children: []Node{
		UTurnNode{MinTurn: math.Pi * 0.8},
		DuringNode{From: 0, To: 400},
	}}}
	p := BuildPlan(q, src)
	if p.Strategy != StrategyScan {
		t.Fatalf("strategy = %s, want scan (sel=%g)", p.Strategy, p.EstSelectivity)
	}
	if len(p.Order) != 2 || p.Order[0] != "during" {
		t.Errorf("order = %v, want during first", p.Order)
	}
}

// TestProbeBoxSuperset: every probe box derived from an indexable leaf
// must admit every OG satisfying that leaf (the soundness invariant the
// rtree strategy rests on).
func TestProbeBoxSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ogs := scatteredOGs(rng, 150)
	src := newFakeSource(t, ogs)
	leaves := []Node{
		SpatialNode{Kind: SpatialPasses, Rect: geom.Rect{Min: geom.Pt(200, 200), Max: geom.Pt(600, 600)}},
		SpatialNode{Kind: SpatialStarts, Rect: geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(500, 500)}},
		SpatialNode{Kind: SpatialEnds, Rect: geom.Rect{Min: geom.Pt(300, 0), Max: geom.Pt(1000, 400)}},
		WithinNode{Rect: geom.Rect{Min: geom.Pt(100, 100), Max: geom.Pt(700, 700)}, From: 50, To: 400},
		DuringNode{From: 100, To: 300},
	}
	for _, leaf := range leaves {
		pred := Compile(leaf)
		ids, _, ok := src.SpatialCandidates(probeBox(leaf))
		if !ok {
			t.Fatal("no index")
		}
		cand := map[int]bool{}
		for _, id := range ids {
			cand[id] = true
		}
		for i, og := range ogs {
			if pred(og) && !cand[i] {
				t.Errorf("%s: OG %d satisfies the leaf but the probe missed it", leaf.name(), i)
			}
		}
	}
}
