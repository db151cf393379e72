package graph

import (
	"sort"

	"strgindex/internal/geom"
)

// Tolerance bounds how much two attribute values may differ and still be
// considered equal during matching. Segmented regions jitter between frames
// (illumination, segmentation instability), so exact attribute equality is
// useless in practice; every matching entry point takes a Tolerance.
//
// A zero tolerance demands exact equality. DefaultTolerance is tuned for
// the synthetic video substrate.
type Tolerance struct {
	// SizeRel is the maximum allowed relative size difference,
	// |a-b| / max(a, b, 1).
	SizeRel float64
	// Color is the maximum allowed RGB distance (0 .. sqrt(3)).
	Color float64
	// Centroid is the maximum allowed centroid displacement in pixels.
	// Zero means "do not compare centroids" — tracking must tolerate
	// motion, so centroid equality is usually not wanted.
	Centroid float64
	// Dist is the maximum allowed difference of spatial edge lengths.
	Dist float64
	// Orient is the maximum allowed orientation difference in radians.
	Orient float64
}

// DefaultTolerance is a reasonable tolerance for the synthetic video
// substrate: regions keep their size and color up to jitter while moving
// freely.
func DefaultTolerance() Tolerance {
	return Tolerance{
		SizeRel: 0.35,
		Color:   0.18,
		Dist:    12,
		Orient:  0.6,
	}
}

// NodesCompatible reports whether two node attribute sets are equal up to
// the tolerance.
func (t Tolerance) NodesCompatible(a, b NodeAttr) bool {
	maxSize := a.Size
	if b.Size > maxSize {
		maxSize = b.Size
	}
	if maxSize < 1 {
		maxSize = 1
	}
	if absf(a.Size-b.Size)/maxSize > t.SizeRel {
		return false
	}
	if a.Color.Dist(b.Color) > t.Color {
		return false
	}
	if t.Centroid > 0 && a.Centroid.Dist(b.Centroid) > t.Centroid {
		return false
	}
	return true
}

// EdgesCompatible reports whether two spatial edge attribute sets are equal
// up to the tolerance.
func (t Tolerance) EdgesCompatible(a, b SpatialAttr) bool {
	if absf(a.Dist-b.Dist) > t.Dist {
		return false
	}
	if geom.AngleDiff(a.Orient, b.Orient) > t.Orient {
		return false
	}
	return true
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Matcher bundles a tolerance with the matching algorithms. The zero value
// uses exact attribute equality.
type Matcher struct {
	Tol Tolerance
}

// NewMatcher returns a Matcher with the given tolerance.
func NewMatcher(tol Tolerance) *Matcher { return &Matcher{Tol: tol} }

// Mapping is a node correspondence from one graph into another.
type Mapping map[NodeID]NodeID

// Isomorphic reports whether a and b are isomorphic per Definition 4 and, if
// so, returns a witnessing bijection from a's nodes to b's nodes. It
// backtracks over candidate assignments of a's nodes onto b's nodes:
// degrees must match exactly and edges and non-edges must map to edges and
// non-edges (full isomorphism on induced edges in both directions).
func (m *Matcher) Isomorphic(a, b *Graph) (Mapping, bool) {
	if a.Order() != b.Order() || a.Size() != b.Size() {
		return nil, false
	}
	aIDs := a.NodeIDs()
	// Order a's nodes by descending degree: high-constraint nodes first
	// prunes much faster.
	sort.Slice(aIDs, func(i, j int) bool { return a.Degree(aIDs[i]) > a.Degree(aIDs[j]) })

	bIDs := b.NodeIDs()
	assign := make(Mapping, len(aIDs))
	used := make(map[NodeID]bool, len(bIDs))

	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(aIDs) {
			return true
		}
		u := aIDs[i]
		ua, _ := a.Node(u)
		for _, v := range bIDs {
			if used[v] {
				continue
			}
			vb, _ := b.Node(v)
			if a.Degree(u) != b.Degree(v) {
				continue
			}
			if !m.Tol.NodesCompatible(ua.Attr, vb.Attr) {
				continue
			}
			if !m.consistent(a, b, assign, u, v) {
				continue
			}
			assign[u] = v
			used[v] = true
			if rec(i + 1) {
				return true
			}
			delete(assign, u)
			used[v] = false
		}
		return false
	}
	if rec(0) {
		return assign, true
	}
	return nil, false
}

// consistent checks that mapping u -> v preserves (non-)adjacency and edge
// attributes against every node already assigned.
func (m *Matcher) consistent(a, b *Graph, assign Mapping, u, v NodeID) bool {
	for au, bv := range assign {
		ae, aok := a.EdgeAttr(u, au)
		be, bok := b.EdgeAttr(v, bv)
		if aok != bok {
			return false
		}
		if aok && !m.Tol.EdgesCompatible(ae, be) {
			return false
		}
	}
	return true
}

// CommonPair is one node correspondence inside a common subgraph.
type CommonPair struct {
	A, B NodeID
}

// MostCommonSubgraph returns a maximum common node-induced subgraph of a and
// b per Definition 6, as a list of node correspondences. It reduces the
// problem to maximum clique detection on the association graph (Levi 1972),
// which is how the paper computes G_C for SimGraph.
//
// The association graph has one vertex per attribute-compatible node pair
// (u ∈ a, v ∈ b); two vertices (u1,v1), (u2,v2) are adjacent when u1≠u2,
// v1≠v2, and the pairs preserve (non-)adjacency with compatible edge
// attributes. A maximum clique is a maximum common subgraph.
func (m *Matcher) MostCommonSubgraph(a, b *Graph) []CommonPair {
	type vertex struct {
		u, v NodeID
	}
	var verts []vertex
	for _, an := range a.Nodes() {
		for _, bn := range b.Nodes() {
			if m.Tol.NodesCompatible(an.Attr, bn.Attr) {
				verts = append(verts, vertex{an.ID, bn.ID})
			}
		}
	}
	n := len(verts)
	if n == 0 {
		return nil
	}
	// Dense adjacency over association-graph vertices.
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			vi, vj := verts[i], verts[j]
			if vi.u == vj.u || vi.v == vj.v {
				continue
			}
			ae, aok := a.EdgeAttr(vi.u, vj.u)
			be, bok := b.EdgeAttr(vi.v, vj.v)
			if aok != bok {
				continue
			}
			if aok && !m.Tol.EdgesCompatible(ae, be) {
				continue
			}
			adj[i][j] = true
			adj[j][i] = true
		}
	}
	best := maxClique(adj)
	out := make([]CommonPair, len(best))
	for i, vi := range best {
		out[i] = CommonPair{A: verts[vi].u, B: verts[vi].v}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].A < out[j].A })
	return out
}

// SimGraph computes Equation (1): |G_C| / min(|G_N(v)|, |G_N(v')|) where
// G_C is the most common subgraph of the two (neighborhood) graphs. It
// returns 0 when either graph is empty.
func (m *Matcher) SimGraph(a, b *Graph) float64 {
	minOrder := a.Order()
	if b.Order() < minOrder {
		minOrder = b.Order()
	}
	if minOrder == 0 {
		return 0
	}
	common := m.MostCommonSubgraph(a, b)
	return float64(len(common)) / float64(minOrder)
}
