package strg

import (
	"math"
	"sort"

	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/rag"
	"strgindex/internal/video"
)

// OnlineBuilder runs the STRG pipeline incrementally: frames stream in one
// at a time, chains extend as the tracker links regions, and finished
// Object Graphs are emitted as soon as no still-open chain could merge
// with them — the shape a live surveillance ingest needs (the paper's
// "real-time systems such as video surveillance" motivation for fast
// cluster building). Memory stays proportional to the open chains plus one
// frame, not to the segment length.
type OnlineBuilder struct {
	cfg     Config
	matcher *graph.Matcher

	frame int // next frame index to consume
	// prev carries the previous frame's RAG with its neighborhood cache:
	// the frame was tracking's nxt last round and becomes cur this round,
	// so its lazily-built stars are reused instead of rebuilt.
	prev *frameNbrs
	// last is the raw frame prev was built from — the only input needed
	// to rebuild prev deterministically after a Checkpoint/Restore cycle.
	last   *video.Frame
	baseID graph.NodeID // next node ID block
	velIn  map[graph.NodeID]geom.Vector

	// open maps a chain's current tail node to the chain.
	open map[graph.NodeID]*sampleChain
	// closed chains await grouping into OGs.
	closed []*sampleChain
	nextOG int
}

// sampleChain is a chain carried as raw samples (the online builder drops
// graphs as soon as tracking leaves them behind).
type sampleChain struct {
	frames    []int
	centroids []geom.Point
	sizes     []float64
	labels    map[string]int
	// attrs[i] is the temporal edge leaving sample i.
	attrs []TemporalAttr
}

func (c *sampleChain) start() int { return c.frames[0] }
func (c *sampleChain) end() int   { return c.frames[len(c.frames)-1] }

func (c *sampleChain) meanVelocity() float64 {
	if len(c.attrs) == 0 {
		return 0
	}
	var sum float64
	for _, a := range c.attrs {
		sum += a.Velocity
	}
	return sum / float64(len(c.attrs))
}

// NewOnlineBuilder creates a streaming builder.
func NewOnlineBuilder(cfg Config) *OnlineBuilder {
	if cfg.SimThreshold <= 0 {
		cfg = DefaultConfig()
	}
	return &OnlineBuilder{
		cfg:     cfg,
		matcher: graph.NewMatcher(cfg.Tol),
		velIn:   make(map[graph.NodeID]geom.Vector),
		open:    make(map[graph.NodeID]*sampleChain),
	}
}

// AddFrame consumes the next frame and returns any Object Graphs that
// became final.
func (b *OnlineBuilder) AddFrame(f video.Frame) []*OG {
	g := rag.Build(f, b.cfg.RAG, b.baseID)
	b.baseID += graph.NodeID(len(f.Regions))
	gN := newFrameNbrs(g)

	extended := make(map[graph.NodeID]bool) // new-frame nodes that continue a chain
	if b.prev != nil {
		links := matchFrames(b.matcher, b.cfg, b.prev, gN, b.velIn)
		newVel := make(map[graph.NodeID]geom.Vector, len(links))
		newOpen := make(map[graph.NodeID]*sampleChain, len(links))
		for _, l := range links {
			chain := b.open[l.from]
			if chain == nil {
				continue // tail already consumed (cannot happen: links are 1-1)
			}
			delete(b.open, l.from)
			chain.attrs = append(chain.attrs, l.attr)
			appendSample(chain, g, l.to, b.frame)
			newOpen[l.to] = chain
			newVel[l.to] = l.disp
			extended[l.to] = true
		}
		// Chains whose tail found no successor are closed — in ascending
		// tail-node order, so the closure order (and through grouping, the
		// emitted OG numbering) is a pure function of the frame stream
		// rather than of map iteration. Replay determinism depends on it.
		for _, id := range sortedTails(b.open) {
			b.closed = append(b.closed, b.open[id])
		}
		b.open = newOpen
		b.velIn = newVel
	}
	// Unmatched new-frame nodes start chains.
	for _, id := range gN.ids {
		if !extended[id] {
			chain := &sampleChain{labels: make(map[string]int)}
			appendSample(chain, g, id, b.frame)
			b.open[id] = chain
		}
	}
	b.prev = gN
	b.last = &f
	b.frame++
	return b.emitReady(false)
}

// Flush closes every chain and emits the remaining Object Graphs. The
// builder is reusable afterwards (frame numbering continues).
func (b *OnlineBuilder) Flush() []*OG {
	for _, id := range sortedTails(b.open) {
		b.closed = append(b.closed, b.open[id])
	}
	b.open = make(map[graph.NodeID]*sampleChain)
	b.velIn = make(map[graph.NodeID]geom.Vector)
	b.prev = nil
	b.last = nil
	return b.emitReady(true)
}

// sortedTails returns the open chains' tail node IDs in ascending order:
// the deterministic closure order AddFrame and Flush use in place of map
// iteration.
func sortedTails(open map[graph.NodeID]*sampleChain) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(open))
	for id := range open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// OpenMoving counts the open chains that currently look like objects
// (length >= 2 with mean velocity at or above MinObjectVelocity). A live
// feed uses zero as its quiescence signal: cutting a commit boundary here
// cannot split an object chain, only background/noise chains that the
// decomposition drops anyway.
func (b *OnlineBuilder) OpenMoving() int {
	n := 0
	for _, c := range b.open {
		if len(c.frames) >= 2 && c.meanVelocity() >= b.cfg.MinObjectVelocity {
			n++
		}
	}
	return n
}

func appendSample(c *sampleChain, g *graph.Graph, id graph.NodeID, frame int) {
	n, _ := g.Node(id)
	c.frames = append(c.frames, frame)
	c.centroids = append(c.centroids, n.Attr.Centroid)
	c.sizes = append(c.sizes, n.Attr.Size)
	if n.Attr.Label != "" {
		c.labels[n.Attr.Label]++
	}
}

// emitReady groups closed object chains whose merge partners cannot still
// be open and materializes them. With force, everything pending is
// emitted.
func (b *OnlineBuilder) emitReady(force bool) []*OG {
	if len(b.closed) == 0 {
		return nil
	}
	// Only moving chains of sufficient length become OGs; the rest is
	// background/noise and is dropped at closure.
	var objects []*sampleChain
	for _, c := range b.closed {
		if len(c.frames) >= b.cfg.MinORGLength && c.meanVelocity() >= b.cfg.MinObjectVelocity {
			objects = append(objects, c)
		}
	}
	// An open moving chain may yet close and merge with a pending one, so
	// any pending chain overlapping such a chain's lifetime stays pending.
	blocked := func(c *sampleChain) bool {
		if force {
			return false
		}
		for _, o := range b.open {
			if len(o.frames) >= 2 && o.meanVelocity() >= b.cfg.MinObjectVelocity && o.start() <= c.end() {
				return true
			}
		}
		return false
	}
	var ready, pending []*sampleChain
	for _, c := range objects {
		if blocked(c) {
			pending = append(pending, c)
		} else {
			ready = append(ready, c)
		}
	}
	// Keep only pending object chains (plus nothing else) for next time.
	b.closed = pending
	if len(ready) == 0 {
		return nil
	}
	return b.groupAndEmit(ready)
}

// groupAndEmit merges ready chains into OGs with the same criteria as the
// batch decomposition.
func (b *OnlineBuilder) groupAndEmit(chains []*sampleChain) []*OG {
	n := len(chains)
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
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if chainsMergeable(chains[i], chains[j], b.cfg) {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[rj] = ri
				}
			}
		}
	}
	groups := make(map[int][]*sampleChain)
	for i, c := range chains {
		groups[find(i)] = append(groups[find(i)], c)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	var out []*OG
	for _, r := range roots {
		og := materializeSampleOG(groups[r])
		og.ID = b.nextOG
		b.nextOG++
		out = append(out, og)
	}
	return out
}

// chainsMergeable mirrors shouldMerge for sample chains.
func chainsMergeable(a, c *sampleChain, cfg Config) bool {
	lo := max(a.start(), c.start())
	hi := min(a.end(), c.end())
	if hi < lo {
		return false
	}
	shorter := min(len(a.frames), len(c.frames))
	if float64(hi-lo+1) < 0.5*float64(shorter) {
		return false
	}
	var velDiffs, proxDiffs []float64
	for f := lo; f <= hi; f++ {
		pa, oka := sampleAt(a, f)
		pc, okc := sampleAt(c, f)
		if oka && okc {
			proxDiffs = append(proxDiffs, pa.Dist(pc))
		}
		va, oka := velocityAt(a, f)
		vc, okc := velocityAt(c, f)
		if oka && okc {
			velDiffs = append(velDiffs, va.Add(vc.Scale(-1)).Len())
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

func sampleAt(c *sampleChain, frame int) (geom.Point, bool) {
	for i, f := range c.frames {
		if f == frame {
			return c.centroids[i], true
		}
	}
	return geom.Point{}, false
}

func velocityAt(c *sampleChain, frame int) (geom.Vector, bool) {
	for i, f := range c.frames {
		if f == frame && i < len(c.attrs) {
			a := c.attrs[i]
			return vecFromPolar(a.Velocity, a.Direction), true
		}
	}
	return geom.Vector{}, false
}

// materializeSampleOG fuses sample chains like materializeOG fuses node
// chains: size-weighted centroid per frame, sizes summed.
func materializeSampleOG(group []*sampleChain) *OG {
	type acc struct {
		wx, wy, w float64
	}
	perFrame := make(map[int]*acc)
	labels := make(map[string]int)
	for _, c := range group {
		for i, f := range c.frames {
			a := perFrame[f]
			if a == nil {
				a = &acc{}
				perFrame[f] = a
			}
			w := c.sizes[i]
			if w <= 0 {
				w = 1
			}
			a.wx += c.centroids[i].X * w
			a.wy += c.centroids[i].Y * w
			a.w += w
		}
		for l, n := range c.labels {
			labels[l] += n
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
	}
	for i, f := range frames {
		a := perFrame[f]
		og.Centroids[i] = geom.Pt(a.wx/a.w, a.wy/a.w)
		og.Sizes[i] = a.w
	}
	best, bestCount := "", 0
	for label, count := range labels {
		if count > bestCount || (count == bestCount && label < best) {
			best, bestCount = label, count
		}
	}
	og.Label = best
	og.Clip = video.ClipRef{FrameStart: og.StartFrame(), FrameEnd: og.EndFrame() + 1}
	return og
}

func vecFromPolar(speed, dir float64) geom.Vector {
	return geom.Vec(speed*math.Cos(dir), speed*math.Sin(dir))
}
