package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"strgindex/internal/geom"
)

// buildTriangle returns a 3-node triangle graph with distinct sizes.
func gray(v float64) Color { return Color{v, v, v} }

func buildTriangle(t *testing.T, base NodeID) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < 3; i++ {
		g.MustAddNode(Node{
			ID: base + NodeID(i),
			Attr: NodeAttr{
				Size:     float64(100 * (i + 1)),
				Color:    gray(float64(i) * 0.3),
				Centroid: geom.Pt(float64(i*10), 0),
			},
		})
	}
	edges := []struct {
		u, v NodeID
		attr SpatialAttr
	}{
		{base, base + 1, SpatialAttr{Dist: 10, Orient: 0}},
		{base + 1, base + 2, SpatialAttr{Dist: 10, Orient: 0}},
		{base, base + 2, SpatialAttr{Dist: 20, Orient: 0}},
	}
	for _, e := range edges {
		if err := g.AddEdge(e.u, e.v, e.attr); err != nil {
			t.Fatalf("AddEdge(%d, %d): %v", e.u, e.v, err)
		}
	}
	return g
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	if err := g.AddNode(Node{ID: 1}); err != nil {
		t.Fatalf("first AddNode: %v", err)
	}
	if err := g.AddNode(Node{ID: 1}); err == nil {
		t.Error("duplicate AddNode did not error")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: 1})
	g.MustAddNode(Node{ID: 2})
	tests := []struct {
		name string
		u, v NodeID
	}{
		{"self edge", 1, 1},
		{"missing u", 7, 2},
		{"missing v", 1, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.AddEdge(tt.u, tt.v, SpatialAttr{}); err == nil {
				t.Error("AddEdge did not error")
			}
		})
	}
	if err := g.AddEdge(1, 2, SpatialAttr{}); err != nil {
		t.Fatalf("valid AddEdge: %v", err)
	}
	if err := g.AddEdge(2, 1, SpatialAttr{}); err == nil {
		t.Error("duplicate edge (reversed) did not error")
	}
}

func TestOrderAndSize(t *testing.T) {
	g := buildTriangle(t, 0)
	if g.Order() != 3 {
		t.Errorf("Order = %d, want 3", g.Order())
	}
	if g.Size() != 3 {
		t.Errorf("Size = %d, want 3", g.Size())
	}
}

func TestEdgeAttrReverseOrientation(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: 1})
	g.MustAddNode(Node{ID: 2})
	if err := g.AddEdge(1, 2, SpatialAttr{Dist: 5, Orient: math.Pi / 4}); err != nil {
		t.Fatal(err)
	}
	fwd, ok := g.EdgeAttr(1, 2)
	if !ok || fwd.Orient != math.Pi/4 {
		t.Errorf("forward orient = %v, want pi/4", fwd.Orient)
	}
	rev, ok := g.EdgeAttr(2, 1)
	if !ok {
		t.Fatal("reverse edge missing")
	}
	if want := math.Pi/4 + math.Pi; math.Abs(rev.Orient-want) > 1e-9 {
		t.Errorf("reverse orient = %v, want %v", rev.Orient, want)
	}
	if rev.Dist != 5 {
		t.Errorf("reverse dist = %v, want 5", rev.Dist)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := buildTriangle(t, 0)
	e1 := g.Edges()
	e2 := g.Edges()
	if len(e1) != 3 {
		t.Fatalf("len(Edges) = %d, want 3", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Errorf("Edges not deterministic at %d: %v vs %v", i, e1[i], e2[i])
		}
		if e1[i].U >= e1[i].V {
			t.Errorf("edge %v not normalized U < V", e1[i])
		}
	}
}

func TestNeighborhoodGraphIsStar(t *testing.T) {
	g := buildTriangle(t, 0)
	star := g.NeighborhoodGraph(0)
	if star.Order() != 3 {
		t.Errorf("Order = %d, want 3", star.Order())
	}
	// Only edges incident to the center — the (1,2) edge must be absent.
	if star.Size() != 2 {
		t.Errorf("Size = %d, want 2", star.Size())
	}
	if star.HasEdge(1, 2) {
		t.Error("star contains non-center edge (1,2)")
	}
	if g.NeighborhoodGraph(99) != nil {
		t.Error("NeighborhoodGraph of missing node != nil")
	}
}

func TestColorDist(t *testing.T) {
	if got := (Color{0, 0, 0}).Dist(Color{1, 1, 1}); math.Abs(got-math.Sqrt(3)) > 1e-9 {
		t.Errorf("Dist(black, white) = %v, want sqrt(3)", got)
	}
	if got := gray(0.5).Dist(gray(0.5)); got != 0 {
		t.Errorf("Dist(gray, same gray) = %v, want 0", got)
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	small := buildTriangle(t, 0)
	big := buildTriangle(t, 0)
	big.MustAddNode(Node{ID: 50})
	if big.MemoryBytes() <= small.MemoryBytes() {
		t.Error("MemoryBytes did not grow with node count")
	}
}

// TestSnapshotRoundTripIsIndistinguishable: a live commit indexes the built
// background graph, a replayed or replicated one indexes
// FromSnapshot(Snapshot()) of it. The copy must present the same snapshot
// (what index snapshots and replication digests encode), the same size
// accounting, and the same SimGraph score against any other graph (what
// background matching routes on).
func TestSnapshotRoundTripIsIndistinguishable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(base NodeID, n int) *Graph {
		g := New()
		for i := 0; i < n; i++ {
			g.MustAddNode(Node{ID: base + NodeID(i), Attr: NodeAttr{
				Size:     float64(50 + rng.Intn(300)),
				Color:    gray(rng.Float64()),
				Centroid: geom.Pt(rng.Float64()*320, rng.Float64()*240),
				Label:    "bg",
			}})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					_ = g.AddEdge(base+NodeID(j), base+NodeID(i), // V < U: Snapshot must normalize
						SpatialAttr{Dist: rng.Float64() * 30, Orient: rng.Float64()})
				}
			}
		}
		return g
	}
	for trial := 0; trial < 20; trial++ {
		built, other := random(0, 2+rng.Intn(6)), random(100, 2+rng.Intn(6))
		snap := built.Snapshot()
		copied, err := FromSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		if got := copied.Snapshot(); !reflect.DeepEqual(got, snap) {
			t.Fatalf("trial %d: Snapshot changed across the round trip:\n got  %+v\n want %+v", trial, got, snap)
		}
		if got, want := copied.MemoryBytes(), built.MemoryBytes(); got != want {
			t.Errorf("trial %d: MemoryBytes = %d, want %d", trial, got, want)
		}
		m := NewMatcher(DefaultTolerance())
		if got, want := m.SimGraph(copied, other), m.SimGraph(built, other); got != want {
			t.Errorf("trial %d: SimGraph(copy, other) = %v, SimGraph(built, other) = %v", trial, got, want)
		}
		if got, want := m.SimGraph(other, copied), m.SimGraph(other, built); got != want {
			t.Errorf("trial %d: SimGraph(other, copy) = %v, SimGraph(other, built) = %v", trial, got, want)
		}
	}
}
