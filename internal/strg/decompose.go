package strg

import (
	"math"
	"sort"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/video"
)

// OG is an Object Graph (Section 2.3.2): the merger of the Object Region
// Graphs belonging to one moving object. It is the unit of clustering and
// indexing. Per sample (frame) it records the merged centroid (size-weighted
// over constituent regions), total size and the contributing STRG nodes.
type OG struct {
	ID    int
	Label string // dominant ground-truth region label, "" when unknown
	Clip  video.ClipRef

	Frames    []int
	Centroids []geom.Point
	Sizes     []float64
	NodeIDs   [][]graph.NodeID
}

// Len returns the number of temporal samples.
func (og *OG) Len() int { return len(og.Frames) }

// StartFrame returns the first frame the object appears in; -1 when empty.
func (og *OG) StartFrame() int {
	if len(og.Frames) == 0 {
		return -1
	}
	return og.Frames[0]
}

// EndFrame returns the last frame the object appears in; -1 when empty.
func (og *OG) EndFrame() int {
	if len(og.Frames) == 0 {
		return -1
	}
	return og.Frames[len(og.Frames)-1]
}

// Sequence returns the OG's node-attribute sequence for distance
// computations: the centroid trajectory as 2-D vectors.
func (og *OG) Sequence() dist.Sequence {
	seq := make(dist.Sequence, len(og.Centroids))
	for i, c := range og.Centroids {
		seq[i] = dist.Vec{c.X, c.Y}
	}
	return seq
}

// MemoryBytes estimates the OG's in-memory footprint for the size
// accounting of Section 5.4.
func (og *OG) MemoryBytes() int {
	const sampleBytes = 8 + 16 + 8 // frame + centroid + size
	nodeRefs := 0
	for _, ids := range og.NodeIDs {
		nodeRefs += len(ids)
	}
	return og.Len()*sampleBytes + nodeRefs*8
}

// Decomposition is the result of decomposing an STRG per Section 2.3:
// the Object Graphs, the collapsed Background Graph and bookkeeping for
// size accounting.
type Decomposition struct {
	OGs []*OG
	// BG is the single background graph of the segment: temporally stable
	// chains collapsed to one node each (Section 2.3.3).
	BG *graph.Graph
	// NumFrames is N of Equation 9.
	NumFrames int
	// NumBGChains counts the background chains collapsed into BG.
	NumBGChains int
}

// STRGSizeBytes evaluates Equation 9: Σ size(OG_m) + N × size(BG) — the
// footprint of storing the decomposed STRG with the background repeated in
// every frame.
func (d *Decomposition) STRGSizeBytes() int {
	total := d.NumFrames * d.BG.MemoryBytes()
	for _, og := range d.OGs {
		total += og.MemoryBytes()
	}
	return total
}

// Decompose splits the STRG into Object Graphs and the Background Graph.
// Chains faster than cfg.MinObjectVelocity become ORGs and are merged into
// OGs; the remaining (static) chains are collapsed into a single BG.
func (s *STRG) Decompose(cfg Config) *Decomposition {
	cfg = cfg.withDefaults()
	chains := s.Chains()
	var orgs []*Chain
	var bgChains []*Chain
	for _, c := range chains {
		if c.Len() >= cfg.MinORGLength && c.MeanVelocity() >= cfg.MinObjectVelocity {
			orgs = append(orgs, c)
		} else {
			bgChains = append(bgChains, c)
		}
	}
	d := &Decomposition{
		NumFrames:   len(s.Frames),
		NumBGChains: len(bgChains),
	}
	d.OGs = s.mergeORGs(orgs, cfg)
	d.BG = s.collapseBackground(bgChains)
	return d
}

// mergeORGs groups ORGs that belong to a single object (same velocity and
// moving direction while spatially together — Section 2.3.2) with
// union-find, then materializes one OG per group.
func (s *STRG) mergeORGs(orgs []*Chain, cfg Config) []*OG {
	n := len(orgs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s.shouldMerge(orgs[i], orgs[j], cfg) {
				union(i, j)
			}
		}
	}
	groups := make(map[int][]*Chain)
	for i, org := range orgs {
		root := find(i)
		groups[root] = append(groups[root], org)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	segName := ""
	if s.Segment != nil {
		segName = s.Segment.Name
	}
	ogs := make([]*OG, 0, len(roots))
	for idx, r := range roots {
		og := s.materializeOG(groups[r])
		og.ID = idx
		og.Clip = video.ClipRef{
			Segment:    segName,
			FrameStart: og.StartFrame(),
			FrameEnd:   og.EndFrame() + 1,
		}
		ogs = append(ogs, og)
	}
	return ogs
}

// shouldMerge decides whether two ORGs trace parts of the same object:
// overlapping lifetimes, matching mean velocity and direction, and
// spatial proximity over the shared frames.
func (s *STRG) shouldMerge(a, b *Chain, cfg Config) bool {
	if a.Len() == 0 || b.Len() == 0 {
		return false
	}
	aStart, aEnd := a.Frames[0], a.Frames[len(a.Frames)-1]
	bStart, bEnd := b.Frames[0], b.Frames[len(b.Frames)-1]
	lo := max(aStart, bStart)
	hi := min(aEnd, bEnd)
	if hi < lo {
		return false
	}
	overlap := hi - lo + 1
	shorter := min(a.Len(), b.Len())
	if float64(overlap) < 0.5*float64(shorter) {
		return false
	}
	// Instantaneous velocity agreement and spatial proximity over the
	// shared frames. Medians rather than means: a single-frame tracking
	// glitch (a region briefly jumping to the wrong correspondence) spikes
	// one frame's velocity without making the chains different objects.
	var velDiffs, proxDiffs []float64
	for fi := lo; fi <= hi; fi++ {
		pa, oka := s.chainCentroidAt(a, fi)
		pb, okb := s.chainCentroidAt(b, fi)
		if oka && okb {
			proxDiffs = append(proxDiffs, pa.Dist(pb))
		}
		va, oka := chainVelocityAt(a, fi)
		vb, okb := chainVelocityAt(b, fi)
		if oka && okb {
			velDiffs = append(velDiffs, va.Add(vb.Scale(-1)).Len())
		}
	}
	if len(proxDiffs) == 0 || len(velDiffs) == 0 {
		return false
	}
	if median(velDiffs) > cfg.MergeVelocityTol {
		return false
	}
	return median(proxDiffs) <= cfg.MergeProximity
}

// median returns the middle value of xs (average of the two middles for
// even lengths). xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// chainVelocityAt returns the velocity vector of the temporal edge leaving
// the chain's node at the given frame.
func chainVelocityAt(c *Chain, frame int) (geom.Vector, bool) {
	for i, f := range c.Frames {
		if f == frame {
			if i >= len(c.Attrs) {
				return geom.Vector{}, false
			}
			a := c.Attrs[i]
			return geom.Vec(a.Velocity*math.Cos(a.Direction), a.Velocity*math.Sin(a.Direction)), true
		}
	}
	return geom.Vector{}, false
}

func (s *STRG) chainCentroidAt(c *Chain, frame int) (geom.Point, bool) {
	for i, f := range c.Frames {
		if f == frame {
			n, ok := s.nodeOf(c.Nodes[i])
			if !ok {
				return geom.Point{}, false
			}
			return n.Attr.Centroid, true
		}
	}
	return geom.Point{}, false
}

func (s *STRG) nodeOf(id graph.NodeID) (graph.Node, bool) {
	fi, ok := s.frameOf[id]
	if !ok {
		return graph.Node{}, false
	}
	return s.Frames[fi].Node(id)
}

// materializeOG fuses a group of ORGs into one OG: per frame, the merged
// centroid is the size-weighted mean of the member regions and the size is
// their sum. The label is the most frequent non-empty region label.
func (s *STRG) materializeOG(group []*Chain) *OG {
	type acc struct {
		wx, wy, w float64
		nodes     []graph.NodeID
	}
	perFrame := make(map[int]*acc)
	labels := make(map[string]int)
	for _, c := range group {
		for i, id := range c.Nodes {
			n, ok := s.nodeOf(id)
			if !ok {
				continue
			}
			fi := c.Frames[i]
			a := perFrame[fi]
			if a == nil {
				a = &acc{}
				perFrame[fi] = a
			}
			w := n.Attr.Size
			if w <= 0 {
				w = 1
			}
			a.wx += n.Attr.Centroid.X * w
			a.wy += n.Attr.Centroid.Y * w
			a.w += w
			a.nodes = append(a.nodes, id)
			if n.Attr.Label != "" {
				labels[n.Attr.Label]++
			}
		}
	}
	frames := make([]int, 0, len(perFrame))
	for f := range perFrame {
		frames = append(frames, f)
	}
	sort.Ints(frames)
	og := &OG{
		Frames:    frames,
		Centroids: make([]geom.Point, len(frames)),
		Sizes:     make([]float64, len(frames)),
		NodeIDs:   make([][]graph.NodeID, len(frames)),
	}
	for i, f := range frames {
		a := perFrame[f]
		og.Centroids[i] = geom.Pt(a.wx/a.w, a.wy/a.w)
		og.Sizes[i] = a.w
		sort.Slice(a.nodes, func(x, y int) bool { return a.nodes[x] < a.nodes[y] })
		og.NodeIDs[i] = a.nodes
	}
	best, bestCount := "", 0
	for label, count := range labels {
		if count > bestCount || (count == bestCount && label < best) {
			best, bestCount = label, count
		}
	}
	og.Label = best
	return og
}

// collapseBackground overlaps the background chains along their temporal
// edges (Section 2.3.3): each chain becomes one BG node whose attributes
// are the per-frame averages, and two BG nodes share a spatial edge when
// their member regions were adjacent in some frame (attributes from the
// earliest such frame).
func (s *STRG) collapseBackground(chains []*Chain) *graph.Graph {
	bg := graph.New()
	memberOf := make(map[graph.NodeID]int) // STRG node -> chain index
	for ci, c := range chains {
		var sx, sy, ssize, sr, sg, sb float64
		count := 0
		for _, id := range c.Nodes {
			n, ok := s.nodeOf(id)
			if !ok {
				continue
			}
			memberOf[id] = ci
			sx += n.Attr.Centroid.X
			sy += n.Attr.Centroid.Y
			ssize += n.Attr.Size
			sr += n.Attr.Color.R
			sg += n.Attr.Color.G
			sb += n.Attr.Color.B
			count++
		}
		if count == 0 {
			continue
		}
		f := float64(count)
		bg.MustAddNode(graph.Node{
			ID: graph.NodeID(ci),
			Attr: graph.NodeAttr{
				Size:     ssize / f,
				Color:    graph.Color{R: sr / f, G: sg / f, B: sb / f},
				Centroid: geom.Pt(sx/f, sy/f),
			},
		})
	}
	// Spatial edges between collapsed chains, first adjacency wins.
	for _, g := range s.Frames {
		for _, e := range g.Edges() {
			ci, oki := memberOf[e.U]
			cj, okj := memberOf[e.V]
			if !oki || !okj || ci == cj {
				continue
			}
			u, v := graph.NodeID(ci), graph.NodeID(cj)
			if !bg.Has(u) || !bg.Has(v) || bg.HasEdge(u, v) {
				continue
			}
			if err := bg.AddEdge(u, v, e.Attr); err != nil {
				panic(err) // unreachable: endpoints checked above
			}
		}
	}
	return bg
}
