package rtree

import (
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
)

// line builds a straight trajectory.
func line(x0, y0, x1, y1 float64, n int) dist.Sequence {
	s := make(dist.Sequence, n)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		s[i] = dist.Vec{x0 + (x1-x0)*t, y0 + (y1-y0)*t}
	}
	return s
}

func TestSimilarKFindsNearbyTrajectory(t *testing.T) {
	ti, err := NewTrajectoryIndex[int](8)
	if err != nil {
		t.Fatal(err)
	}
	ti.Insert(line(0, 50, 300, 50, 20), 0, 1)
	ti.Insert(line(0, 150, 300, 150, 20), 0, 2)
	ti.Insert(line(300, 50, 0, 50, 20), 0, 3) // reverse direction

	q := line(0, 52, 300, 48, 20)
	got, evals, cands := ti.SimilarK(q, 0, 1, 30, dist.EGEDMZero)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("SimilarK = %v, want [1]", got)
	}
	if evals == 0 || cands == 0 {
		t.Error("no cost recorded")
	}
	// The y=150 trajectory should not even be a candidate at slack 30.
	if cands >= 3 {
		t.Errorf("candidates = %d, expected spatial pruning", cands)
	}
}

func TestSimilarKSlackTradeoff(t *testing.T) {
	ti, _ := NewTrajectoryIndex[int](8)
	for i := 0; i < 20; i++ {
		ti.Insert(line(0, float64(10+i*11), 300, float64(10+i*11), 16), 0, i)
	}
	q := line(0, 120, 300, 120, 16)
	_, _, candTight := ti.SimilarK(q, 0, 3, 15, dist.EGEDMZero)
	_, _, candLoose := ti.SimilarK(q, 0, 3, 200, dist.EGEDMZero)
	if candLoose <= candTight {
		t.Errorf("loose slack (%d candidates) should exceed tight (%d)", candLoose, candTight)
	}
	if candLoose != 20 {
		t.Errorf("slack 200 should cover all 20 trajectories, got %d", candLoose)
	}
}

func TestSingleSampleTrajectory(t *testing.T) {
	ti, _ := NewTrajectoryIndex[int](8)
	ti.Insert(dist.Sequence{{50, 50}}, 7, 9)
	got, _ := ti.tree.Search(NewBox([3]float64{40, 40, 7}, [3]float64{60, 60, 7}))
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("Search = %v, want [9]", got)
	}
}

func TestStepBoxes(t *testing.T) {
	collect := func(path []geom.Point, frames []int) []Box {
		var out []Box
		StepBoxes(path, frames, func(b Box) { out = append(out, b) })
		return out
	}
	if got := collect(nil, nil); got != nil {
		t.Errorf("empty path produced %v", got)
	}
	one := collect([]geom.Point{geom.Pt(3, 4)}, []int{7})
	if len(one) != 1 || one[0].Min != [3]float64{3, 4, 7} || one[0].Max != one[0].Min {
		t.Errorf("one-sample path = %+v, want a single point box", one)
	}
	// Frames that repeat and run backwards still give normalized boxes, each
	// sharing a corner with the next, so the union covers every sample.
	path := []geom.Point{geom.Pt(0, 0), geom.Pt(10, -5), geom.Pt(4, 8), geom.Pt(4, 8)}
	frames := []int{5, 9, 2, 2}
	boxes := collect(path, frames)
	if len(boxes) != len(path)-1 {
		t.Fatalf("%d boxes for %d samples", len(boxes), len(path))
	}
	for i, b := range boxes {
		for d := 0; d < 3; d++ {
			if b.Min[d] > b.Max[d] {
				t.Errorf("box %d not normalized: %+v", i, b)
			}
		}
		for _, j := range []int{i, i + 1} {
			p := [3]float64{path[j].X, path[j].Y, float64(frames[j])}
			if !b.Intersects(Box{Min: p, Max: p}) {
				t.Errorf("box %d misses sample %d", i, j)
			}
		}
	}
}
