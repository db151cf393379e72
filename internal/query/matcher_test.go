package query

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/rtree"
)

func TestMatcherPredicate(t *testing.T) {
	east := lineOG(0, 50, 100, 50, 0, 8)
	west := lineOG(100, 150, 0, 150, 0, 8)
	m, err := NewMatcher(&Query{Where: HeadingNode{Dir: "east", Angle: 0, Tol: 0.5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Match(east) {
		t.Error("eastbound OG rejected by east heading")
	}
	if m.Match(west) {
		t.Error("westbound OG matched east heading")
	}
	if m.K() != 0 || m.Radius() != 0 {
		t.Error("predicate-only matcher reports a similar clause")
	}
}

func TestMatcherDistance(t *testing.T) {
	og := lineOG(0, 0, 100, 0, 0, 8)
	q := &Query{Similar: &SimilarClause{Trajectory: og.Sequence(), K: 3}}
	m, err := NewMatcher(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 3 {
		t.Fatalf("similar clause lost: K=%d", m.K())
	}
	if d := m.Distance(dist.FromSequence(og.Sequence())); d != 0 {
		t.Errorf("self-distance = %g, want 0", d)
	}
	far := lineOG(0, 500, 100, 500, 0, 8)
	farBlock := dist.FromSequence(far.Sequence())
	if d := m.Distance(farBlock); d <= 0 {
		t.Errorf("distance to a distant OG = %g, want > 0", d)
	}
	// The pinned metric must agree with the index default.
	if got, want := m.Distance(farBlock), dist.EGEDMZero(og.Sequence(), far.Sequence()); got != want {
		t.Errorf("matcher distance %g != EGEDMZero %g", got, want)
	}
	// A pure-similarity matcher's predicate is vacuously true.
	if !m.Match(far) {
		t.Error("pure-similarity matcher rejected an OG")
	}
}

func TestMatcherCustomMetric(t *testing.T) {
	og := lineOG(0, 0, 10, 0, 0, 4)
	q := &Query{Similar: &SimilarClause{Trajectory: dist.Sequence{{0, 0}}, K: 1}}
	m, err := NewMatcher(q, func(a, b dist.Sequence) float64 { return 42 })
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Distance(dist.FromSequence(og.Sequence())); d != 42 {
		t.Errorf("custom metric ignored: got %g", d)
	}
}

func TestMatcherTrajectoryCopied(t *testing.T) {
	traj := dist.Sequence{{0, 0}, {10, 0}}
	q := &Query{Similar: &SimilarClause{Trajectory: traj, K: 1}}
	m, err := NewMatcher(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	og := dist.FromSequence(lineOG(0, 0, 10, 0, 0, 2).Sequence())
	before := m.Distance(og)
	traj[0] = dist.Vec{1e6, 1e6} // caller scribbles on its slice
	if after := m.Distance(og); after != before {
		t.Error("matcher shares the caller's trajectory storage")
	}
}

func TestMatcherRejects(t *testing.T) {
	tests := []struct {
		name string
		q    *Query
	}{
		{"nil", nil},
		{"empty", &Query{}},
		{"invalid where", &Query{Where: SpeedNode{Lo: 5, Hi: 1}}},
		{"approx mode", &Query{Similar: &SimilarClause{
			Trajectory: dist.Sequence{{0, 0}}, K: 3, Mode: ModeApprox}}},
		{"nan trajectory", &Query{Similar: &SimilarClause{
			Trajectory: dist.Sequence{{math.NaN(), 0}}, K: 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMatcher(tt.q, nil); err == nil {
				t.Error("invalid standing query accepted")
			}
		})
	}
}

func TestMatcherRangeClause(t *testing.T) {
	q := &Query{
		Where:   SpatialNode{Kind: SpatialPasses, Rect: geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(200, 200)}},
		Similar: &SimilarClause{Trajectory: dist.Sequence{{50, 50}}, Radius: 10},
	}
	m, err := NewMatcher(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 0 || m.Radius() != 10 {
		t.Errorf("K=%d Radius=%g, want 0/10", m.K(), m.Radius())
	}
}

// TestMatcherDistanceConcurrent: Distance draws its DP scratch from a
// shared pool, so one matcher (and several) may be asked from many
// goroutines at once and must still return the metric's bits.
func TestMatcherDistanceConcurrent(t *testing.T) {
	traj := lineOG(0, 0, 100, 0, 0, 8).Sequence()
	m, err := NewMatcher(&Query{Similar: &SimilarClause{Trajectory: traj, K: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		og := lineOG(0, float64(10*g), 100, float64(20*g), 0, 5+g).Sequence()
		want := dist.EGEDMZero(traj, og)
		wg.Add(1)
		go func() {
			defer wg.Done()
			blk := dist.FromSequence(og)
			for i := 0; i < 200; i++ {
				if got := m.Distance(blk); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("concurrent Distance = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMatcherProbeBox(t *testing.T) {
	inf := math.Inf(1)
	small := geom.Rect{Min: geom.Pt(10, 10), Max: geom.Pt(40, 40)}
	big := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(300, 200)}
	smallBox := rtree.Box{Min: [3]float64{10, 10, -inf}, Max: [3]float64{40, 40, inf}}
	traj := dist.Sequence{{0, 0}, {10, 0}}
	cases := []struct {
		name string
		q    *Query
		want rtree.Box
		ok   bool
	}{
		{"rectangle", &Query{Where: SpatialNode{Kind: SpatialPasses, Rect: small}}, smallBox, true},
		{"tightest of an and-chain", &Query{Where: AndNode{Children: []Node{
			SpatialNode{Kind: SpatialStarts, Rect: big},
			AndNode{Children: []Node{SpeedNode{Lo: 1, Hi: 2}, SpatialNode{Kind: SpatialEnds, Rect: small}}},
			DuringNode{From: 0, To: 5},
		}}}, smallBox, true},
		{"within beats its own rectangle", &Query{Where: AndNode{Children: []Node{
			SpatialNode{Kind: SpatialPasses, Rect: small},
			WithinNode{Rect: small, From: 3, To: 9},
		}}}, rtree.Box{Min: [3]float64{10, 10, 3}, Max: [3]float64{40, 40, 9}}, true},
		{"during alone", &Query{Where: DuringNode{From: 4, To: 8}},
			rtree.Box{Min: [3]float64{-inf, -inf, 4}, Max: [3]float64{inf, inf, 8}}, true},
		{"range with a where tree", &Query{Where: SpatialNode{Kind: SpatialPasses, Rect: small},
			Similar: &SimilarClause{Trajectory: traj, Radius: 5}}, smallBox, true},
		// An inverted during still accepts OGs spanning [to, from]; its
		// box, inverted on t, would find none of them.
		{"inverted during", &Query{Where: DuringNode{From: 8, To: 4}}, rtree.Box{}, false},
		{"inverted during beside a rectangle", &Query{Where: AndNode{Children: []Node{
			DuringNode{From: 8, To: 4}, SpatialNode{Kind: SpatialPasses, Rect: small},
		}}}, smallBox, true},
		{"or root", &Query{Where: OrNode{Children: []Node{SpatialNode{Kind: SpatialPasses, Rect: small}}}}, rtree.Box{}, false},
		{"not root", &Query{Where: NotNode{Child: SpatialNode{Kind: SpatialPasses, Rect: small}}}, rtree.Box{}, false},
		{"attributes only", &Query{Where: AndNode{Children: []Node{LengthNode{Min: 1}, AreaNode{Lo: 1, Hi: 2}}}}, rtree.Box{}, false},
		{"pure similarity", &Query{Similar: &SimilarClause{Trajectory: traj, K: 2}}, rtree.Box{}, false},
	}
	for _, c := range cases {
		m, err := NewMatcher(c.q, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, ok := m.ProbeBox(); ok != c.ok || got != c.want {
			t.Errorf("%s: ProbeBox = %+v, %v; want %+v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

// TestMatcherProbeBoxNecessary is the standing direction of
// TestProbeBoxSuperset: whenever Match accepts an OG, one of the OG's step
// boxes intersects the matcher's probe box.
func TestMatcherProbeBoxNecessary(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ogs := append(scatteredOGs(rng, 300), lineOG(5, 5, 5, 5, 7, 1)) // plus a one-sample OG
	for i := 0; i < 400; i++ {
		x, y, f := rng.Float64()*900, rng.Float64()*900, rng.Intn(900)
		r := geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+rng.Float64()*300, y+rng.Float64()*300)}
		leaves := []Node{
			SpatialNode{Kind: SpatialKind(rng.Intn(3)), Rect: r},
			WithinNode{Rect: r, From: f, To: f + rng.Intn(200) - 20},
			DuringNode{From: f, To: f + rng.Intn(200) - 20},
			LengthNode{Min: rng.Intn(8)},
		}
		rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
		m, err := NewMatcher(&Query{Where: AndNode{Children: leaves[:1+rng.Intn(3)]}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		box, ok := m.ProbeBox()
		if !ok {
			continue
		}
		for id, og := range ogs {
			if !m.Match(og) {
				continue
			}
			hit := false
			rtree.StepBoxes(og.Centroids, og.Frames, func(b rtree.Box) { hit = hit || b.Intersects(box) })
			if !hit {
				t.Fatalf("query %d accepts OG %d but no step box meets its probe box %+v", i, id, box)
			}
		}
	}
}

func TestMatcherDistanceUB(t *testing.T) {
	near := lineOG(0, 0, 100, 0, 0, 8)
	far := dist.FromSequence(lineOG(0, 500, 100, 500, 0, 8).Sequence())
	m, err := NewMatcher(&Query{Similar: &SimilarClause{Trajectory: near.Sequence(), K: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := m.Distance(far)
	if d, abandoned := m.DistanceUB(far, exact); abandoned || d != exact {
		t.Errorf("DistanceUB at the exact distance = %g, %v; want %g kept (the bound is inclusive)", d, abandoned, exact)
	}
	if d, abandoned := m.DistanceUB(far, 1); !abandoned || d <= 1 || d > exact {
		t.Errorf("DistanceUB(ub=1) = %g, %v; want an abandoned lower bound in (1, %g]", d, abandoned, exact)
	}
	// A pinned metric has no abandoning form.
	pinned, err := NewMatcher(&Query{Similar: &SimilarClause{Trajectory: near.Sequence(), K: 1}},
		func(a, b dist.Sequence) float64 { return 42 })
	if err != nil {
		t.Fatal(err)
	}
	if d, abandoned := pinned.DistanceUB(far, 1); abandoned || d != 42 {
		t.Errorf("pinned metric DistanceUB = %g, %v", d, abandoned)
	}
}
