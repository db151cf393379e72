// Package graph implements attributed region graphs and the graph matching
// primitives the STRG pipeline is built on: graph isomorphism, subgraph
// isomorphism and the most-common-subgraph computation used by SimGraph
// (Equation 1 of the paper).
//
// Nodes carry the region attributes of Definition 1 (size, color, centroid);
// spatial edges carry distance and orientation between region centroids.
// Attribute equality is always checked through a Tolerance, because segmented
// regions jitter from frame to frame.
package graph

import (
	"fmt"
	"math"
	"sort"

	"strgindex/internal/geom"
)

// NodeID identifies a node. IDs are assigned by the caller and must be
// unique within a graph; the STRG layer keeps them unique across a whole
// video segment so nodes can be referenced from temporal edges.
type NodeID int

// Color is a mean region color with components in [0, 1].
type Color struct {
	R, G, B float64
}

// Dist returns the Euclidean distance between two colors in RGB space.
// Its maximum value is sqrt(3).
func (c Color) Dist(d Color) float64 {
	dr, dg, db := c.R-d.R, c.G-d.G, c.B-d.B
	return math.Sqrt(dr*dr + dg*dg + db*db)
}

// NodeAttr holds the attributes ν(v) of a region node per Definition 1:
// size (pixel count), mean color and centroid location. Label carries the
// ground-truth object identity where one is known (synthetic data); it is
// never consulted by matching.
type NodeAttr struct {
	Size     float64
	Color    Color
	Centroid geom.Point
	Label    string
}

// Node is a region node.
type Node struct {
	ID   NodeID
	Attr NodeAttr
}

// SpatialAttr holds the attributes ξ(e_S) of a spatial edge: the distance
// and orientation between the centroids of the two adjacent regions.
type SpatialAttr struct {
	Dist   float64
	Orient float64
}

// SpatialEdge pairs two node IDs with the edge attributes. Spatial edges
// are undirected; the orientation is stored for the (U, V) direction.
type SpatialEdge struct {
	U, V NodeID
	Attr SpatialAttr
}

// Graph is an attributed undirected graph over region nodes — a Region
// Adjacency Graph in the paper's terms. The zero value is not usable; call
// New.
type Graph struct {
	nodes []Node
	index map[NodeID]int
	adj   map[NodeID]map[NodeID]SpatialAttr
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		index: make(map[NodeID]int),
		adj:   make(map[NodeID]map[NodeID]SpatialAttr),
	}
}

// AddNode inserts n. It returns an error if a node with the same ID
// already exists.
func (g *Graph) AddNode(n Node) error {
	if _, ok := g.index[n.ID]; ok {
		return fmt.Errorf("graph: duplicate node %d", n.ID)
	}
	g.index[n.ID] = len(g.nodes)
	g.nodes = append(g.nodes, n)
	return nil
}

// MustAddNode is AddNode that panics on error; for use in construction code
// where IDs are generated and collisions are bugs.
func (g *Graph) MustAddNode(n Node) {
	if err := g.AddNode(n); err != nil {
		panic(err)
	}
}

// AddEdge inserts an undirected spatial edge between u and v. It returns an
// error if either endpoint is missing, u == v, or the edge already exists.
func (g *Graph) AddEdge(u, v NodeID, attr SpatialAttr) error {
	if u == v {
		return fmt.Errorf("graph: self edge on node %d", u)
	}
	if _, ok := g.index[u]; !ok {
		return fmt.Errorf("graph: edge endpoint %d not in graph", u)
	}
	if _, ok := g.index[v]; !ok {
		return fmt.Errorf("graph: edge endpoint %d not in graph", v)
	}
	if _, ok := g.adj[u][v]; ok {
		return fmt.Errorf("graph: duplicate edge (%d, %d)", u, v)
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[NodeID]SpatialAttr)
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[NodeID]SpatialAttr)
	}
	g.adj[u][v] = attr
	// Store the reverse direction with the orientation flipped so that
	// EdgeAttr(v, u) reads consistently.
	rev := attr
	rev.Orient = geom.NormalizeAngle(attr.Orient + math.Pi)
	g.adj[v][u] = rev
	return nil
}

// Order returns the number of nodes.
func (g *Graph) Order() int { return len(g.nodes) }

// Size returns the number of undirected edges.
func (g *Graph) Size() int {
	total := 0
	for _, m := range g.adj {
		total += len(m)
	}
	return total / 2
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (Node, bool) {
	i, ok := g.index[id]
	if !ok {
		return Node{}, false
	}
	return g.nodes[i], true
}

// Has reports whether the node exists.
func (g *Graph) Has(id NodeID) bool {
	_, ok := g.index[id]
	return ok
}

// Nodes returns the nodes in insertion order. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Nodes() []Node { return g.nodes }

// NodeIDs returns the IDs of all nodes in insertion order.
func (g *Graph) NodeIDs() []NodeID {
	ids := make([]NodeID, len(g.nodes))
	for i, n := range g.nodes {
		ids[i] = n.ID
	}
	return ids
}

// Degree returns the number of neighbors of id.
func (g *Graph) Degree(id NodeID) int { return len(g.adj[id]) }

// EdgeAttr returns the attributes of the edge (u, v), oriented from u to v.
func (g *Graph) EdgeAttr(u, v NodeID) (SpatialAttr, bool) {
	attr, ok := g.adj[u][v]
	return attr, ok
}

// HasEdge reports whether the edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.adj[u][v]
	return ok
}

// Edges returns every undirected edge exactly once, with U < V, sorted.
func (g *Graph) Edges() []SpatialEdge {
	var out []SpatialEdge
	for u, m := range g.adj {
		for v, attr := range m {
			if u < v {
				out = append(out, SpatialEdge{U: u, V: v, Attr: attr})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// NeighborhoodGraph returns G_N(v) per Definition 7: the star consisting of
// v, its adjacent nodes, and the edges (v, u) only. It returns nil if v is
// not in g.
func (g *Graph) NeighborhoodGraph(v NodeID) *Graph {
	center, ok := g.Node(v)
	if !ok {
		return nil
	}
	star := New()
	star.MustAddNode(center)
	for u, attr := range g.adj[v] {
		n, _ := g.Node(u)
		star.MustAddNode(n)
		if err := star.AddEdge(v, u, attr); err != nil {
			panic(err) // unreachable
		}
	}
	return star
}

// MemoryBytes estimates the in-memory footprint of the graph, used by the
// STRG vs STRG-Index size accounting of Section 5.4. The estimate counts
// node and edge payloads, not Go map overhead, so it is stable across
// runtimes.
func (g *Graph) MemoryBytes() int {
	const nodeBytes = 8 + 8 + 24 + 16 // ID + size + color + centroid
	const edgeBytes = 8 + 8 + 16      // two IDs + dist/orient
	return g.Order()*nodeBytes + g.Size()*edgeBytes
}
