// Package strg implements the Spatio-Temporal Region Graph of Definition 2:
// per-frame Region Adjacency Graphs connected by temporal edges, the
// graph-based tracking that constructs those edges (Algorithm 1), and the
// decomposition of an STRG into Object Graphs and a Background Graph
// (Section 2.3).
package strg

import (
	"fmt"
	"sort"
	"time"

	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/parallel"
	"strgindex/internal/rag"
	"strgindex/internal/video"
)

// mustRun re-panics pool errors inside construction helpers whose task
// functions never return errors themselves: the only possible failure is a
// recovered worker panic, which the sequential path would have let escape.
func mustRun(err error) {
	if err != nil {
		panic(err)
	}
}

// TemporalAttr holds the attributes τ(e_T) of a temporal edge: how far the
// region's centroid moved between the two frames (velocity, in pixels per
// frame) and in which direction (radians).
type TemporalAttr struct {
	Velocity  float64
	Direction float64
}

// Config controls STRG construction and decomposition.
type Config struct {
	// RAG configures per-frame region adjacency.
	RAG rag.Config
	// Tol is the attribute tolerance used by neighborhood-graph matching.
	Tol graph.Tolerance
	// SimThreshold is T_sim of Algorithm 1: the minimum SimGraph value at
	// which two non-isomorphic neighborhood graphs still correspond.
	SimThreshold float64
	// MaxDisplacement gates tracking candidates: a region cannot move more
	// than this many pixels between consecutive frames.
	MaxDisplacement float64
	// MinObjectVelocity separates foreground chains (objects) from
	// background chains during decomposition, in pixels per frame.
	MinObjectVelocity float64
	// MinORGLength drops chains shorter than this many nodes before OG
	// extraction; very short tracks are segmentation noise.
	MinORGLength int
	// BridgeFrames allows tracking to reconnect a track across up to this
	// many missing frames (occlusion: the region vanished behind another
	// object and reappeared). Zero disables bridging; bridged temporal
	// edges span multiple frames with velocity averaged over the gap.
	BridgeFrames int
	// MergeVelocityTol and MergeProximity control ORG merging (Section
	// 2.3.2, "if two ORGs have the same moving direction and the same
	// velocity"): two ORGs merge into one OG when, averaged over their
	// shared frames, their per-frame velocity vectors differ by at most
	// MergeVelocityTol px/frame and their centroids stay within
	// MergeProximity pixels. Comparing instantaneous velocity vectors
	// rather than whole-chain means keeps parts of a turning object
	// together (fragments covering different legs of a U-turn share no
	// global direction, but at every shared instant they move alike).
	MergeVelocityTol float64
	MergeProximity   float64
	// Concurrency bounds the worker pool used during construction: the
	// per-frame RAGs are built concurrently and, within each consecutive
	// frame pair, Algorithm 1's candidate scoring (the neighborhood-graph
	// isomorphism/SimGraph evaluations) fans out across current-frame
	// nodes. The temporal stitching itself — candidate ranking and the
	// greedy one-to-one assignment — stays sequential, so the resulting
	// temporal edges are identical at any setting. 0 means one worker per
	// CPU; 1 reproduces the fully sequential construction.
	Concurrency int
}

// DefaultConfig returns the configuration used across the experiments.
func DefaultConfig() Config {
	return Config{
		RAG:               rag.DefaultConfig(),
		Tol:               graph.DefaultTolerance(),
		SimThreshold:      0.4,
		MaxDisplacement:   45,
		MinObjectVelocity: 3,
		MinORGLength:      4,
		MergeVelocityTol:  5,
		MergeProximity:    40,
	}
}

// withDefaults is the one default-config rule: a config without a
// similarity threshold is unset and becomes DefaultConfig, keeping only
// its worker budget.
func (c Config) withDefaults() Config {
	if c.SimThreshold > 0 {
		return c
	}
	d := DefaultConfig()
	d.Concurrency = c.Concurrency
	return d
}

// STRG is a Spatio-Temporal Region Graph: one RAG per frame with node IDs
// unique across the whole segment, plus temporal edges between consecutive
// frames. Build constructs one over a whole segment; Add extends it by a
// frame, ending in the state Build of the longer segment would produce.
type STRG struct {
	// Segment is the segment Build was given; its Name labels the clips of
	// the decomposed OGs. Frames appended by Add are not copied into it.
	Segment *video.Segment
	// Frames holds the per-frame RAGs.
	Frames []*graph.Graph

	cfg     Config
	matcher *graph.Matcher
	nextID  graph.NodeID // first node ID of the next frame
	// last is the newest frame's tracking cache: the cur side of the next
	// frame pair, so its neighborhood graphs are built once.
	last *frameNbrs

	frameOf map[graph.NodeID]int
	next    map[graph.NodeID]graph.NodeID
	inDeg   map[graph.NodeID]int
	tattr   map[graph.NodeID]TemporalAttr // attribute of the edge leaving the key node
	velIn   map[graph.NodeID]geom.Vector  // displacement of the edge arriving at the key node

	// runs holds, for each newest-frame node that a temporal edge reaches,
	// the edge count and velocity sum of the chain ending there; moving
	// counts the runs that look like objects (see OpenMoving).
	runs   map[graph.NodeID]chainRun
	moving int
	// bridges are the occlusion links bridgeGaps laid over the current
	// frames. Tracking must not see them — Build bridges only after its
	// last frame — so Add lifts them before linking a frame.
	bridges []link
}

// chainRun is a chain's temporal-edge count and velocity sum, summed in
// chain order so its mean is bit-identical to Chain.MeanVelocity.
type chainRun struct {
	edges int
	vel   float64
}

// NumTemporalEdges returns |E_T|.
func (s *STRG) NumTemporalEdges() int { return len(s.next) }

// MemoryBytes estimates the raw in-memory footprint of the STRG: every
// frame's RAG plus the temporal edges. This is the uncompressed size that
// Section 5.4 compares the index against.
func (s *STRG) MemoryBytes() int {
	const temporalEdgeBytes = 8 + 8 + 16 // two IDs + velocity/direction
	total := len(s.next) * temporalEdgeBytes
	for _, g := range s.Frames {
		total += g.MemoryBytes()
	}
	return total
}

// Build constructs the STRG of a segment: it builds one RAG per frame and
// runs graph-based tracking (Algorithm 1) over each consecutive pair —
// the step Add runs for one new frame.
func Build(seg *video.Segment, cfg Config) (*STRG, error) {
	if seg == nil || len(seg.Frames) == 0 {
		return nil, fmt.Errorf("strg: empty segment")
	}
	cfg = cfg.withDefaults()
	s := &STRG{
		Segment: seg,
		Frames:  make([]*graph.Graph, len(seg.Frames)),
		cfg:     cfg,
		matcher: graph.NewMatcher(cfg.Tol),
		frameOf: make(map[graph.NodeID]int),
		next:    make(map[graph.NodeID]graph.NodeID),
		inDeg:   make(map[graph.NodeID]int),
		tattr:   make(map[graph.NodeID]TemporalAttr),
		velIn:   make(map[graph.NodeID]geom.Vector),
	}
	// Frames are independent until tracking: node ID bases are known
	// upfront from the region counts, so every frame's RAG builds
	// concurrently. The frameOf map is filled afterwards (maps are not
	// safe for concurrent writes).
	bases := make([]graph.NodeID, len(seg.Frames))
	var base graph.NodeID
	for i, f := range seg.Frames {
		bases[i] = base
		base += graph.NodeID(len(f.Regions))
	}
	s.nextID = base
	ragStart := time.Now()
	if err := parallel.ForEach(cfg.Concurrency, len(seg.Frames), func(i int) error {
		s.Frames[i] = rag.Build(seg.Frames[i], cfg.RAG, bases[i])
		return nil
	}); err != nil {
		return nil, fmt.Errorf("strg: building RAGs: %w", err)
	}
	ragBuildSeconds.Observe(time.Since(ragStart).Seconds())
	for i, g := range s.Frames {
		for _, id := range g.NodeIDs() {
			s.frameOf[id] = i
		}
	}
	trackStart := time.Now()
	// Per-frame neighborhood caches persist across the whole pair loop:
	// every interior frame participates in two consecutive pairs (as nxt,
	// then as cur), and rebuilding its stars for each role used to double
	// the construction's NeighborhoodGraph work. In parallel mode all
	// frames' stars are precomputed in one segment-wide pass — one pool
	// fan-out over every (frame, node) instead of a barrier per pair,
	// which is both less claim traffic and far better load balancing when
	// frame sizes are skewed.
	nbrs := make([]*frameNbrs, len(s.Frames))
	for i, g := range s.Frames {
		nbrs[i] = newFrameNbrs(g)
	}
	if parallel.Workers(cfg.Concurrency) > 1 && len(s.Frames) > 1 {
		offsets := make([]int, len(nbrs)+1)
		for i, fn := range nbrs {
			offsets[i+1] = offsets[i] + len(fn.ids)
		}
		mustRun(parallel.ForEach(cfg.Concurrency, offsets[len(nbrs)], func(k int) error {
			fi := sort.Search(len(offsets), func(i int) bool { return offsets[i] > k }) - 1
			fn := nbrs[fi]
			j := k - offsets[fi]
			fn.gn[j] = fn.g.NeighborhoodGraph(fn.ids[j])
			return nil
		}))
		for _, fn := range nbrs {
			fn.full = true
		}
	}
	for _, fn := range nbrs {
		s.track(fn)
	}
	s.bridgeGaps()
	trackSeconds.Observe(time.Since(trackStart).Seconds())
	return s, nil
}

// Add appends the segment's next frame and tracks it against the newest
// one: one RAG build and one round of Algorithm 1. The frame's position,
// not its Index, numbers it. Afterwards the STRG — temporal edges, chains,
// decomposition — equals Build of the segment extended by f, so a live
// feed tracks each frame once, as it arrives, and commits what it built.
func (s *STRG) Add(f video.Frame) {
	s.liftBridges()
	g := rag.Build(f, s.cfg.RAG, s.nextID)
	s.nextID += graph.NodeID(len(f.Regions))
	for _, id := range g.NodeIDs() {
		s.frameOf[id] = len(s.Frames)
	}
	s.Frames = append(s.Frames, g)
	s.track(newFrameNbrs(g))
	s.bridgeGaps()
}

// OpenMoving counts the chains that end in the newest frame and currently
// look like objects: at least two nodes and a mean velocity at or above
// MinObjectVelocity. A live feed cuts its epoch where this is zero: the
// cut then splits no moving chain. Occlusion bridges do not count.
func (s *STRG) OpenMoving() int { return s.moving }

// track makes fn the newest frame: it links the previous newest frame to
// it (Algorithm 1 over one frame pair) and rolls the chain runs forward.
func (s *STRG) track(fn *frameNbrs) {
	prev := s.last
	s.last = fn
	if prev == nil {
		return
	}
	links := matchFrames(s.matcher, s.cfg, prev, fn, s.velIn)
	runs := make(map[graph.NodeID]chainRun, len(links))
	s.moving = 0
	for _, l := range links {
		s.next[l.from] = l.to
		s.inDeg[l.to]++
		s.tattr[l.from] = l.attr
		s.velIn[l.to] = l.disp
		r := s.runs[l.from]
		r.edges++
		r.vel += l.attr.Velocity
		runs[l.to] = r
		if r.vel/float64(r.edges) >= s.cfg.MinObjectVelocity {
			s.moving++
		}
	}
	s.runs = runs
}

// liftBridges removes the links bridgeGaps laid, restoring the tracked
// state exactly: a bridge joins a tail without a successor to a head
// without a predecessor, so every entry it wrote was absent before.
func (s *STRG) liftBridges() {
	for _, b := range s.bridges {
		delete(s.next, b.from)
		delete(s.tattr, b.from)
		delete(s.inDeg, b.to)
		delete(s.velIn, b.to)
	}
	s.bridges = s.bridges[:0]
}

// bridgeGaps reconnects tracks across occlusion gaps: a chain tail at
// frame f is linked to a compatible chain head at frame f+1+g (g <=
// BridgeFrames) when the head sits near the tail's constant-velocity
// prediction. Matching is greedy by prediction error, one-to-one, and
// only considers moving tails (static regions do not get occluded out of
// existence — they are simply still there). The links are recorded in
// s.bridges for liftBridges.
func (s *STRG) bridgeGaps() {
	cfg := s.cfg
	if cfg.BridgeFrames <= 0 {
		return
	}
	type endpoint struct {
		id    graph.NodeID
		frame int
		node  graph.Node
		vel   geom.Vector
	}
	// Tails: nodes with no outgoing edge before the last frame.
	// Heads: nodes with no incoming edge after the first frame.
	var tails, heads []endpoint
	for fi, g := range s.Frames {
		for _, id := range sortedIDs(g) {
			n, _ := g.Node(id)
			if _, ok := s.next[id]; !ok && fi < len(s.Frames)-1 {
				v := s.velIn[id]
				if v.Len() >= cfg.MinObjectVelocity {
					tails = append(tails, endpoint{id, fi, n, v})
				}
			}
			if s.inDeg[id] == 0 && fi > 0 {
				heads = append(heads, endpoint{id, fi, n, geom.Vector{}})
			}
		}
	}
	type cand struct {
		tail, head int
		err        float64
		gap        int
	}
	var cands []cand
	for ti, t := range tails {
		for hi, h := range heads {
			gap := h.frame - t.frame
			if gap < 2 || gap > cfg.BridgeFrames+1 {
				continue
			}
			if !cfg.Tol.NodesCompatible(t.node.Attr, h.node.Attr) {
				continue
			}
			predicted := t.node.Attr.Centroid.Add(t.vel.Scale(float64(gap)))
			moveErr := predicted.Dist(h.node.Attr.Centroid)
			if cfg.MaxDisplacement > 0 && moveErr > cfg.MaxDisplacement*float64(gap) {
				continue
			}
			cands = append(cands, cand{ti, hi, moveErr, gap})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].err != cands[j].err {
			return cands[i].err < cands[j].err
		}
		if cands[i].tail != cands[j].tail {
			return cands[i].tail < cands[j].tail
		}
		return cands[i].head < cands[j].head
	})
	usedT := make(map[int]bool)
	usedH := make(map[int]bool)
	for _, c := range cands {
		if usedT[c.tail] || usedH[c.head] {
			continue
		}
		usedT[c.tail] = true
		usedH[c.head] = true
		t, h := tails[c.tail], heads[c.head]
		disp := h.node.Attr.Centroid.Sub(t.node.Attr.Centroid).Scale(1 / float64(c.gap))
		b := link{from: t.id, to: h.id, attr: TemporalAttr{Velocity: disp.Len(), Direction: disp.Angle()}, disp: disp}
		s.next[b.from] = b.to
		s.inDeg[b.to]++
		s.tattr[b.from] = b.attr
		s.velIn[b.to] = b.disp
		s.bridges = append(s.bridges, b)
	}
}

// frameNbrs caches one frame's tracking inputs: its node IDs in sorted
// order and each node's neighborhood graph, built at most once per node
// for the frame's lifetime (a frame is scored against both of its
// adjacent frames, and its stars are identical in both roles —
// NeighborhoodGraph is deterministic, so caching cannot change a score).
type frameNbrs struct {
	g   *graph.Graph
	ids []graph.NodeID
	gn  []*graph.Graph
	// full marks every slot as built, letting ensureAll skip its pool
	// fan-out after a segment-wide precompute.
	full bool
}

func newFrameNbrs(g *graph.Graph) *frameNbrs {
	ids := sortedIDs(g)
	return &frameNbrs{g: g, ids: ids, gn: make([]*graph.Graph, len(ids))}
}

// nbr returns node i's neighborhood graph, building it on first use. Lazy
// fill is single-writer only; concurrent scorers must ensureAll first.
func (f *frameNbrs) nbr(i int) *graph.Graph {
	if f.gn[i] == nil {
		f.gn[i] = f.g.NeighborhoodGraph(f.ids[i])
	}
	return f.gn[i]
}

// ensureAll fills every slot across the worker pool (each slot has
// exactly one writer), after which reads are race-free.
func (f *frameNbrs) ensureAll(workers int) {
	if f.full {
		return
	}
	mustRun(parallel.ForEach(workers, len(f.ids), func(i int) error {
		if f.gn[i] == nil {
			f.gn[i] = f.g.NeighborhoodGraph(f.ids[i])
		}
		return nil
	}))
	f.full = true
}

// link is one temporal correspondence produced by frame-pair matching.
type link struct {
	from, to graph.NodeID
	attr     TemporalAttr
	disp     geom.Vector
}

// matchFrames implements Algorithm 1 for one consecutive frame pair and
// returns the chosen one-to-one correspondences. velIn supplies each
// current-frame node's incoming displacement for constant-velocity
// prediction (nil entries mean no history). Differences from the paper's
// pseudocode, all forced by determinism and robustness rather than taste:
// (1) candidates are gated by attribute compatibility and by displacement
// from the constant-velocity prediction (a tracked region is expected near
// its previous position plus its previous motion — without the motion
// term, identical-looking regions swap identities the moment their paths
// cross); (2) correspondences are assigned one-to-one in descending match
// quality (structural quality discounted by prediction error). The
// pseudocode lets several nodes claim the same successor, which shatters
// the chains of identical-looking objects when they cross — and its
// first-isomorphic-match break would be nondeterministic over Go's
// randomized map iteration anyway.
func matchFrames(matcher *graph.Matcher, cfg Config, curN, nxtN *frameNbrs, velIn map[graph.NodeID]geom.Vector) []link {
	cur, nxt := curN.g, nxtN.g
	curIDs := curN.ids
	nxtIDs := nxtN.ids

	type cand struct {
		v, v2 graph.NodeID
		score float64
	}
	// scoreNode produces one current node's gated, scored candidates. It
	// reads only immutable state (the two RAGs, velIn between stitching
	// rounds, the neighborhood caches), so independent nodes score
	// concurrently; concatenating the per-node lists in curIDs order
	// reproduces the sequential candidate order exactly.
	scoreNode := func(v graph.NodeID, gv *graph.Graph, gnNxt func(j int) *graph.Graph) []cand {
		vn, _ := cur.Node(v)
		// Constant-velocity prediction: where the region should be next.
		predicted := vn.Attr.Centroid.Add(velIn[v])
		var out []cand
		for j, v2 := range nxtIDs {
			v2n, _ := nxt.Node(v2)
			if !cfg.Tol.NodesCompatible(vn.Attr, v2n.Attr) {
				continue
			}
			moveErr := predicted.Dist(v2n.Attr.Centroid)
			if cfg.MaxDisplacement > 0 && moveErr > cfg.MaxDisplacement {
				continue
			}
			gv2 := gnNxt(j)
			// Structural quality: 1 for isomorphic neighborhoods, the
			// SimGraph value above T_sim otherwise. The motion-prediction
			// error discounts it, so a structurally perfect but
			// kinematically absurd correspondence loses to a plausible
			// near-match — the situation at every path crossing of two
			// similar-looking objects.
			quality := -1.0
			if _, ok := matcher.Isomorphic(gv, gv2); ok {
				quality = 1
			} else if sim := matcher.SimGraph(gv, gv2); sim > cfg.SimThreshold {
				quality = sim
			}
			if quality < 0 {
				continue
			}
			if cfg.MaxDisplacement > 0 {
				quality -= moveErr / cfg.MaxDisplacement
			}
			out = append(out, cand{v: v, v2: v2, score: quality})
		}
		return out
	}

	var cands []cand
	if parallel.Workers(cfg.Concurrency) <= 1 || len(curIDs) < 2 {
		// Sequential path: neighborhood graphs built lazily into the
		// persistent per-frame cache — the work profile the paper's
		// Algorithm 1 implies, minus rebuilding stars the previous pair
		// (or the previous Add) already built.
		for i, v := range curIDs {
			cands = append(cands, scoreNode(v, curN.nbr(i), nxtN.nbr)...)
		}
	} else {
		// Parallel path: make sure both frames' caches are complete (a
		// no-op after Build's segment-wide precompute), then score
		// current-frame nodes concurrently. Candidate values and order
		// match the sequential path bit for bit; only the schedule
		// differs.
		curN.ensureAll(cfg.Concurrency)
		nxtN.ensureAll(cfg.Concurrency)
		byIdx := func(j int) *graph.Graph { return nxtN.gn[j] }
		perNode, err := parallel.Map(cfg.Concurrency, len(curIDs), func(i int) ([]cand, error) {
			return scoreNode(curIDs[i], curN.gn[i], byIdx), nil
		})
		mustRun(err)
		for _, cs := range perNode {
			cands = append(cands, cs...)
		}
	}
	// Best matches first; ties break on node IDs for determinism.
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.v != b.v {
			return a.v < b.v
		}
		return a.v2 < b.v2
	})
	usedCur := make(map[graph.NodeID]bool, len(curIDs))
	usedNxt := make(map[graph.NodeID]bool, len(nxtIDs))
	var links []link
	for _, c := range cands {
		if usedCur[c.v] || usedNxt[c.v2] {
			continue
		}
		usedCur[c.v] = true
		usedNxt[c.v2] = true
		vn, _ := cur.Node(c.v)
		cn, _ := nxt.Node(c.v2)
		disp := cn.Attr.Centroid.Sub(vn.Attr.Centroid)
		links = append(links, link{
			from: c.v,
			to:   c.v2,
			attr: TemporalAttr{Velocity: disp.Len(), Direction: disp.Angle()},
			disp: disp,
		})
	}
	return links
}

func sortedIDs(g *graph.Graph) []graph.NodeID {
	ids := g.NodeIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Chain is one maximal temporal path of tracked nodes — an Object Region
// Graph (Definition 8 with empty spatial edge set) before the
// foreground/background classification.
type Chain struct {
	Nodes  []graph.NodeID
	Frames []int
	Attrs  []TemporalAttr // Attrs[i] is the edge Nodes[i] -> Nodes[i+1]
}

// Len returns the number of nodes in the chain.
func (c *Chain) Len() int { return len(c.Nodes) }

// MeanVelocity returns the average temporal-edge velocity of the chain, or
// 0 for single-node chains.
func (c *Chain) MeanVelocity() float64 {
	if len(c.Attrs) == 0 {
		return 0
	}
	var sum float64
	for _, a := range c.Attrs {
		sum += a.Velocity
	}
	return sum / float64(len(c.Attrs))
}

// Chains extracts every maximal temporal path from the STRG. A node with
// multiple temporal predecessors is claimed by the first chain reaching it
// (frame order, then node ID), so chains never share nodes.
func (s *STRG) Chains() []*Chain {
	claimed := make(map[graph.NodeID]bool, len(s.frameOf))
	var chains []*Chain
	for fi := range s.Frames {
		for _, start := range sortedIDs(s.Frames[fi]) {
			if claimed[start] || s.inDeg[start] > 0 {
				continue
			}
			chains = append(chains, s.followChain(start, claimed))
		}
	}
	// Nodes whose only predecessors were claimed by other chains can still
	// be unvisited chain heads (convergent tracking); sweep them up.
	for fi := range s.Frames {
		for _, start := range sortedIDs(s.Frames[fi]) {
			if !claimed[start] {
				chains = append(chains, s.followChain(start, claimed))
			}
		}
	}
	return chains
}

func (s *STRG) followChain(start graph.NodeID, claimed map[graph.NodeID]bool) *Chain {
	c := &Chain{}
	cur := start
	for {
		claimed[cur] = true
		c.Nodes = append(c.Nodes, cur)
		c.Frames = append(c.Frames, s.frameOf[cur])
		nxt, ok := s.next[cur]
		if !ok || claimed[nxt] {
			break
		}
		c.Attrs = append(c.Attrs, s.tattr[cur])
		cur = nxt
	}
	return c
}
