package rtree

import (
	"math/rand"
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

func TestWindowQuery(t *testing.T) {
	ti, err := NewTrajectoryIndex[int](8)
	if err != nil {
		t.Fatal(err)
	}
	ti.Insert(line(0, 50, 300, 50, 20), 0, 1)   // east at y=50, frames 0..19
	ti.Insert(line(0, 150, 300, 150, 20), 0, 2) // east at y=150
	ti.Insert(line(0, 50, 300, 50, 20), 100, 3) // east at y=50 but later
	if ti.Len() != 3 {
		t.Fatalf("Len = %d", ti.Len())
	}

	tests := []struct {
		name   string
		area   geom.Rect
		t0, t1 float64
		want   map[int]bool
	}{
		{"y=50 corridor early", geom.Rect{Min: geom.Pt(100, 40), Max: geom.Pt(200, 60)}, 0, 20, map[int]bool{1: true}},
		{"y=50 corridor late", geom.Rect{Min: geom.Pt(100, 40), Max: geom.Pt(200, 60)}, 100, 120, map[int]bool{3: true}},
		{"whole frame early", geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(320, 240)}, 0, 20, map[int]bool{1: true, 2: true}},
		{"empty period", geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(320, 240)}, 50, 60, map[int]bool{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := ti.Window(tt.area, tt.t0, tt.t1)
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for _, p := range got {
				if !tt.want[p] {
					t.Errorf("unexpected payload %d", p)
				}
			}
		})
	}
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
	got := ti.Window(geom.Rect{Min: geom.Pt(40, 40), Max: geom.Pt(60, 60)}, 7, 7)
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("Window = %v, want [9]", got)
	}
}

func TestWindowMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		ti, err := NewTrajectoryIndex[int](4 + rng.Intn(12))
		if err != nil {
			t.Fatal(err)
		}
		type traj struct {
			seq   dist.Sequence
			start int
		}
		n := 20 + rng.Intn(40)
		trajs := make([]traj, n)
		for i := range trajs {
			m := 2 + rng.Intn(10)
			seq := make(dist.Sequence, m)
			for j := range seq {
				seq[j] = dist.Vec{rng.Float64() * 320, rng.Float64() * 240}
			}
			trajs[i] = traj{seq, rng.Intn(50)}
			ti.Insert(seq, trajs[i].start, i)
		}
		area := geom.Rect{
			Min: geom.Pt(rng.Float64()*200, rng.Float64()*150),
			Max: geom.Pt(200+rng.Float64()*120, 150+rng.Float64()*90),
		}
		t0 := float64(rng.Intn(40))
		t1 := t0 + float64(rng.Intn(20))
		got := ti.Window(area, t0, t1)
		gotSet := map[int]bool{}
		for _, p := range got {
			gotSet[p] = true
		}
		// Brute force: any step box intersecting the window box.
		q := NewBox([3]float64{area.Min.X, area.Min.Y, t0}, [3]float64{area.Max.X, area.Max.Y, t1})
		for i, tr := range trajs {
			want := false
			for j := 0; j+1 < len(tr.seq); j++ {
				b := NewBox(
					[3]float64{tr.seq[j][0], tr.seq[j][1], float64(tr.start + j)},
					[3]float64{tr.seq[j+1][0], tr.seq[j+1][1], float64(tr.start + j + 1)},
				)
				if b.Intersects(q) {
					want = true
					break
				}
			}
			if gotSet[i] != want {
				t.Fatalf("trial %d traj %d: window=%v want %v", trial, i, gotSet[i], want)
			}
		}
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
