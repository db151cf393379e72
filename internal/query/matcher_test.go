package query

import (
	"math"
	"sync"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
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
	if m.HasSimilar() || m.K() != 0 || m.Radius() != 0 {
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
	if !m.HasSimilar() || m.K() != 3 {
		t.Fatalf("similar clause lost: HasSimilar=%v K=%d", m.HasSimilar(), m.K())
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
