package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func box(x0, y0, t0, x1, y1, t1 float64) Box {
	return NewBox([3]float64{x0, y0, t0}, [3]float64{x1, y1, t1})
}

func TestNewValidation(t *testing.T) {
	if _, err := New[int](3); err == nil {
		t.Error("maxEntries 3 accepted")
	}
	tr, err := New[int](0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.maxEntries != 16 {
		t.Errorf("default maxEntries = %d, want 16", tr.maxEntries)
	}
}

func TestBoxBasics(t *testing.T) {
	b := box(0, 0, 0, 2, 3, 4)
	if got := b.Volume(); got != 24 {
		t.Errorf("Volume = %v, want 24", got)
	}
	u := b.Union(box(-1, 0, 0, 1, 1, 1))
	if u.Min != [3]float64{-1, 0, 0} || u.Max != [3]float64{2, 3, 4} {
		t.Errorf("Union = %+v", u)
	}
	if !b.Intersects(box(1, 1, 1, 5, 5, 5)) {
		t.Error("overlapping boxes report no intersection")
	}
	if b.Intersects(box(3, 0, 0, 5, 1, 1)) {
		t.Error("disjoint boxes report intersection")
	}
	if !b.Contains(box(0.5, 0.5, 0.5, 1, 1, 1)) {
		t.Error("contained box not contained")
	}
	if b.Contains(box(0, 0, 0, 9, 9, 9)) {
		t.Error("larger box reported contained")
	}
	// NewBox normalizes reversed corners.
	n := NewBox([3]float64{5, 5, 5}, [3]float64{0, 0, 0})
	if n.Min != [3]float64{0, 0, 0} {
		t.Errorf("NewBox did not normalize: %+v", n)
	}
}

func TestInsertAndSearchExact(t *testing.T) {
	tr, _ := New[int](8)
	// A 10x10x10 grid of unit boxes.
	id := 0
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			for tt := 0; tt < 10; tt++ {
				tr.Insert(box(float64(x), float64(y), float64(tt),
					float64(x)+0.5, float64(y)+0.5, float64(tt)+0.5), id)
				id++
			}
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.height() < 2 {
		t.Errorf("Height = %d, want >= 2", tr.height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Query a region covering exactly 2x2x2 cells.
	got, visited := tr.Search(box(3, 3, 3, 4.6, 4.6, 4.6))
	if len(got) != 8 {
		t.Errorf("Search returned %d, want 8", len(got))
	}
	if visited >= 1000 {
		t.Errorf("Search visited %d nodes — no pruning", visited)
	}
	// Empty region.
	if got, _ := tr.Search(box(100, 100, 100, 101, 101, 101)); len(got) != 0 {
		t.Errorf("empty region returned %d", len(got))
	}
}

func TestSearchMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, _ := New[int](4 + rng.Intn(12))
		n := 50 + rng.Intn(150)
		boxes := make([]Box, n)
		for i := range boxes {
			x, y, tt := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
			boxes[i] = box(x, y, tt, x+rng.Float64()*10, y+rng.Float64()*10, tt+rng.Float64()*10)
			tr.Insert(boxes[i], i)
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		q := box(rng.Float64()*80, rng.Float64()*80, rng.Float64()*80, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		got, _ := tr.Search(q)
		want := map[int]bool{}
		for i, b := range boxes {
			if b.Intersects(q) {
				want[i] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if !want[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr, _ := New[int](8)
	if got, _ := tr.Search(box(0, 0, 0, 1, 1, 1)); got != nil {
		t.Errorf("Search on empty tree = %v", got)
	}
	if tr.height() != 1 {
		t.Errorf("empty Height = %d", tr.height())
	}
}
