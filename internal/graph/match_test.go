package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"strgindex/internal/geom"
)

func exactMatcher() *Matcher { return NewMatcher(Tolerance{}) }

func looseMatcher() *Matcher { return NewMatcher(DefaultTolerance()) }

// path builds a path graph v0 - v1 - ... - v(n-1) with uniform attributes.
func path(n int, base NodeID) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.MustAddNode(Node{ID: base + NodeID(i), Attr: NodeAttr{Size: 100, Color: gray(0.5)}})
	}
	for i := 0; i+1 < n; i++ {
		_ = g.AddEdge(base+NodeID(i), base+NodeID(i+1), SpatialAttr{Dist: 10})
	}
	return g
}

func TestToleranceNodesCompatible(t *testing.T) {
	tol := Tolerance{SizeRel: 0.2, Color: 0.1, Centroid: 5}
	base := NodeAttr{Size: 100, Color: gray(0.5), Centroid: geom.Pt(0, 0)}
	tests := []struct {
		name string
		b    NodeAttr
		want bool
	}{
		{"identical", base, true},
		{"size within", NodeAttr{Size: 115, Color: gray(0.5)}, true},
		{"size beyond", NodeAttr{Size: 150, Color: gray(0.5)}, false},
		{"color within", NodeAttr{Size: 100, Color: gray(0.55)}, true},
		{"color beyond", NodeAttr{Size: 100, Color: gray(0.8)}, false},
		{"centroid within", NodeAttr{Size: 100, Color: gray(0.5), Centroid: geom.Pt(3, 0)}, true},
		{"centroid beyond", NodeAttr{Size: 100, Color: gray(0.5), Centroid: geom.Pt(30, 0)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tol.NodesCompatible(base, tt.b); got != tt.want {
				t.Errorf("NodesCompatible = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestToleranceCentroidZeroMeansIgnore(t *testing.T) {
	tol := Tolerance{SizeRel: 0.2, Color: 0.1} // Centroid == 0
	a := NodeAttr{Size: 100, Color: gray(0.5), Centroid: geom.Pt(0, 0)}
	b := NodeAttr{Size: 100, Color: gray(0.5), Centroid: geom.Pt(500, 500)}
	if !tol.NodesCompatible(a, b) {
		t.Error("zero centroid tolerance should ignore centroid displacement")
	}
}

func TestToleranceEdgesCompatible(t *testing.T) {
	tol := Tolerance{Dist: 2, Orient: 0.3}
	base := SpatialAttr{Dist: 10, Orient: 0}
	tests := []struct {
		name string
		b    SpatialAttr
		want bool
	}{
		{"identical", base, true},
		{"dist within", SpatialAttr{Dist: 11.5, Orient: 0}, true},
		{"dist beyond", SpatialAttr{Dist: 13, Orient: 0}, false},
		{"orient within", SpatialAttr{Dist: 10, Orient: 0.2}, true},
		{"orient beyond", SpatialAttr{Dist: 10, Orient: 1.0}, false},
		{"orient wraps", SpatialAttr{Dist: 10, Orient: 2*math.Pi - 0.1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tol.EdgesCompatible(base, tt.b); got != tt.want {
				t.Errorf("EdgesCompatible = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIsomorphicIdentical(t *testing.T) {
	a := buildTriangle(t, 0)
	b := buildTriangle(t, 100)
	mapping, ok := exactMatcher().Isomorphic(a, b)
	if !ok {
		t.Fatal("identical triangles not isomorphic")
	}
	if len(mapping) != 3 {
		t.Fatalf("mapping size = %d, want 3", len(mapping))
	}
	// Sizes are distinct, so the mapping is forced: 0->100, 1->101, 2->102.
	for u, v := range mapping {
		if v != u+100 {
			t.Errorf("mapping[%d] = %d, want %d", u, v, u+100)
		}
	}
}

func TestIsomorphicRejectsDifferentShape(t *testing.T) {
	tri := buildTriangle(t, 0)
	p := path(3, 0)
	if _, ok := looseMatcher().Isomorphic(tri, p); ok {
		t.Error("triangle isomorphic to path")
	}
}

func TestIsomorphicRejectsDifferentOrder(t *testing.T) {
	if _, ok := looseMatcher().Isomorphic(path(3, 0), path(4, 0)); ok {
		t.Error("P3 isomorphic to P4")
	}
}

func TestIsomorphicUnderRelabeling(t *testing.T) {
	// Property: any relabeling of a random graph stays isomorphic.
	// Seeded trials rather than quick.Check so failures reproduce directly.
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 3 + rng.Intn(5)
		a := New()
		for i := 0; i < n; i++ {
			a.MustAddNode(Node{ID: NodeID(i), Attr: NodeAttr{Size: float64(50 + 10*i), Color: gray(0.4)}})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					_ = a.AddEdge(NodeID(i), NodeID(j), SpatialAttr{Dist: float64(5 + rng.Intn(3))})
				}
			}
		}
		perm := rng.Perm(n)
		b := New()
		for i := 0; i < n; i++ {
			orig, _ := a.Node(NodeID(i))
			b.MustAddNode(Node{ID: NodeID(1000 + perm[i]), Attr: orig.Attr})
		}
		for _, e := range a.Edges() {
			attr, _ := a.EdgeAttr(e.U, e.V)
			_ = b.AddEdge(NodeID(1000+perm[int(e.U)]), NodeID(1000+perm[int(e.V)]), attr)
		}
		if _, ok := exactMatcher().Isomorphic(a, b); !ok {
			t.Fatalf("trial %d: relabeled graph not isomorphic (n=%d)", trial, n)
		}
	}
}

func TestMostCommonSubgraphIdentical(t *testing.T) {
	a := buildTriangle(t, 0)
	b := buildTriangle(t, 100)
	common := exactMatcher().MostCommonSubgraph(a, b)
	if len(common) != 3 {
		t.Fatalf("|G_C| = %d, want 3", len(common))
	}
}

func TestMostCommonSubgraphPartial(t *testing.T) {
	// a: triangle with sizes 100, 200, 300. b: same but third node has a
	// wildly different size -> common subgraph has 2 nodes.
	a := buildTriangle(t, 0)
	b := New()
	sizes := []float64{100, 200, 9000}
	for i := 0; i < 3; i++ {
		b.MustAddNode(Node{ID: NodeID(100 + i), Attr: NodeAttr{Size: sizes[i], Color: gray(float64(i) * 0.3)}})
	}
	_ = b.AddEdge(100, 101, SpatialAttr{Dist: 10})
	_ = b.AddEdge(101, 102, SpatialAttr{Dist: 10})
	_ = b.AddEdge(100, 102, SpatialAttr{Dist: 20})
	common := looseMatcher().MostCommonSubgraph(a, b)
	if len(common) != 2 {
		t.Fatalf("|G_C| = %d, want 2 (got %v)", len(common), common)
	}
}

func TestMostCommonSubgraphDisjointAttrs(t *testing.T) {
	a := New()
	a.MustAddNode(Node{ID: 0, Attr: NodeAttr{Size: 10, Color: gray(0)}})
	b := New()
	b.MustAddNode(Node{ID: 1, Attr: NodeAttr{Size: 100000, Color: gray(1)}})
	if got := looseMatcher().MostCommonSubgraph(a, b); len(got) != 0 {
		t.Errorf("common subgraph of incompatible nodes = %v, want empty", got)
	}
}

func TestSimGraph(t *testing.T) {
	a := buildTriangle(t, 0)
	b := buildTriangle(t, 100)
	if got := exactMatcher().SimGraph(a, b); got != 1 {
		t.Errorf("SimGraph(identical) = %v, want 1", got)
	}
	empty := New()
	if got := exactMatcher().SimGraph(a, empty); got != 0 {
		t.Errorf("SimGraph(a, empty) = %v, want 0", got)
	}
}

func TestSimGraphRange(t *testing.T) {
	// Property: SimGraph is always within [0, 1].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(base NodeID) *Graph {
			g := New()
			n := 1 + rng.Intn(5)
			for i := 0; i < n; i++ {
				g.MustAddNode(Node{ID: base + NodeID(i), Attr: NodeAttr{
					Size:  float64(rng.Intn(300)),
					Color: gray(rng.Float64()),
				}})
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Float64() < 0.4 {
						_ = g.AddEdge(base+NodeID(i), base+NodeID(j), SpatialAttr{Dist: rng.Float64() * 30})
					}
				}
			}
			return g
		}
		a, b := mk(0), mk(100)
		s := looseMatcher().SimGraph(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSimGraphSymmetric(t *testing.T) {
	a := buildTriangle(t, 0)
	b := path(3, 100)
	m := looseMatcher()
	if s1, s2 := m.SimGraph(a, b), m.SimGraph(b, a); math.Abs(s1-s2) > 1e-9 {
		t.Errorf("SimGraph not symmetric: %v vs %v", s1, s2)
	}
}

func TestMaxCliqueDirect(t *testing.T) {
	// 5-vertex graph: {0,1,2} is a triangle, 3-4 is an edge.
	adj := make([][]bool, 5)
	for i := range adj {
		adj[i] = make([]bool, 5)
	}
	set := func(u, v int) { adj[u][v], adj[v][u] = true, true }
	set(0, 1)
	set(1, 2)
	set(0, 2)
	set(3, 4)
	got := maxClique(adj)
	if len(got) != 3 {
		t.Fatalf("maxClique size = %d, want 3 (%v)", len(got), got)
	}
	want := map[int]bool{0: true, 1: true, 2: true}
	for _, v := range got {
		if !want[v] {
			t.Errorf("clique contains %d, want subset of {0,1,2}", v)
		}
	}
}

func TestMaxCliqueEmpty(t *testing.T) {
	if got := maxClique(nil); got != nil {
		t.Errorf("maxClique(nil) = %v, want nil", got)
	}
	// Edgeless graph: any single vertex is a maximum clique.
	adj := [][]bool{{false, false}, {false, false}}
	if got := maxClique(adj); len(got) != 1 {
		t.Errorf("maxClique(edgeless) size = %d, want 1", len(got))
	}
}
