// Package rtree implements the 3DR-tree of Theodoridis, Vazirgiannis and
// Sellis — the related-work baseline the paper's introduction critiques:
// an R-tree that "indexes salient objects by treating the time (temporal
// feature) as another dimension". Trajectories are decomposed into
// per-step (x, y, t) boxes inserted under one payload.
//
// The tree is a classic Guttman R-tree with quadratic split. It is very
// good at the spatio-temporal window queries it was designed for ("what
// passed through this region during this interval") and — as the paper
// argues — poorly matched to motion-similarity queries; the ablation
// benchmarks quantify that.
package rtree

import (
	"fmt"
	"math"
	"slices"
)

// Box is an axis-aligned 3-D box over (x, y, t).
type Box struct {
	Min, Max [3]float64
}

// NewBox normalizes the corner order.
func NewBox(a, b [3]float64) Box {
	var box Box
	for i := 0; i < 3; i++ {
		box.Min[i] = math.Min(a[i], b[i])
		box.Max[i] = math.Max(a[i], b[i])
	}
	return box
}

// Volume returns the box volume.
func (b Box) Volume() float64 {
	v := 1.0
	for i := 0; i < 3; i++ {
		v *= b.Max[i] - b.Min[i]
	}
	return v
}

// Union returns the smallest box covering both.
func (b Box) Union(o Box) Box {
	var out Box
	for i := 0; i < 3; i++ {
		out.Min[i] = math.Min(b.Min[i], o.Min[i])
		out.Max[i] = math.Max(b.Max[i], o.Max[i])
	}
	return out
}

// Intersects reports whether the boxes overlap (boundaries inclusive).
func (b Box) Intersects(o Box) bool {
	for i := 0; i < 3; i++ {
		if b.Min[i] > o.Max[i] || o.Min[i] > b.Max[i] {
			return false
		}
	}
	return true
}

// Contains reports whether o lies fully inside b.
func (b Box) Contains(o Box) bool {
	for i := 0; i < 3; i++ {
		if o.Min[i] < b.Min[i] || o.Max[i] > b.Max[i] {
			return false
		}
	}
	return true
}

// finiteLimit is where Finite clamps: three extents of 2·finiteLimit still
// multiply to a finite float64, so Volume and enlargement never produce
// Inf − Inf = NaN, which choose-subtree cannot rank.
const finiteLimit = 1e100

// Finite returns b with every coordinate clamped into ±1e100. Insert's
// volume arithmetic needs finite boxes, so a caller indexing half-open
// boxes (a rectangle over all time, a frame window over all space) stores
// b.Finite() and clamps its search boxes the same way: clamping is
// monotone, so two boxes that intersect still intersect once both are
// clamped — the probe stays a superset. NaN coordinates pass through.
func (b Box) Finite() Box {
	for i := 0; i < 3; i++ {
		b.Min[i] = math.Max(-finiteLimit, math.Min(finiteLimit, b.Min[i]))
		b.Max[i] = math.Max(-finiteLimit, math.Min(finiteLimit, b.Max[i]))
	}
	return b
}

// enlargement is the volume increase of b when extended to cover o.
func (b Box) enlargement(o Box) float64 {
	return b.Union(o).Volume() - b.Volume()
}

type entry[P any] struct {
	box     Box
	payload P        // leaf only
	child   *node[P] // routing only
}

type node[P any] struct {
	leaf    bool
	entries []*entry[P]
}

func (n *node[P]) boundingBox() Box {
	box := n.entries[0].box
	for _, e := range n.entries[1:] {
		box = box.Union(e.box)
	}
	return box
}

// Tree is a 3-D R-tree. Not safe for concurrent mutation.
type Tree[P any] struct {
	root       *node[P]
	maxEntries int
	minEntries int
	size       int
}

// New creates an empty tree with the given node capacity (minimum 4;
// zero means 16).
func New[P any](maxEntries int) (*Tree[P], error) {
	if maxEntries == 0 {
		maxEntries = 16
	}
	if maxEntries < 4 {
		return nil, fmt.Errorf("rtree: maxEntries %d < 4", maxEntries)
	}
	return &Tree[P]{
		root:       &node[P]{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5, // Guttman's m ≈ 40% fill
	}, nil
}

// Len returns the number of indexed boxes.
func (t *Tree[P]) Len() int { return t.size }

// Insert adds one box. Coordinates must be finite (see Box.Finite).
func (t *Tree[P]) Insert(b Box, payload P) {
	t.insertEntry(&entry[P]{box: b, payload: payload})
	t.size++
}

func (t *Tree[P]) insertEntry(e *entry[P]) {
	if split := t.insert(t.root, e); split != nil {
		t.root = &node[P]{leaf: false, entries: []*entry[P]{split[0], split[1]}}
	}
}

// Delete removes one indexed box equal to b whose payload satisfies match
// and reports whether it found one. It is Guttman's Delete with the
// simple CondenseTree: a node left under the minimum fill is dissolved and
// the leaf entries beneath it are re-inserted from the root, so every
// surviving node keeps its fill and every leaf its depth.
func (t *Tree[P]) Delete(b Box, match func(P) bool) bool {
	var orphans []*entry[P]
	if !t.remove(t.root, b, match, &orphans) {
		return false
	}
	t.size--
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if len(t.root.entries) == 0 {
		t.root = &node[P]{leaf: true}
	}
	for _, e := range orphans {
		t.insertEntry(e)
	}
	return true
}

// remove deletes the matching leaf entry under n, tightening the routing
// boxes on the way back up and dissolving any child left under-full.
func (t *Tree[P]) remove(n *node[P], b Box, match func(P) bool, orphans *[]*entry[P]) bool {
	if n.leaf {
		for i, e := range n.entries {
			if e.box == b && match(e.payload) {
				// slices.Delete zeroes the vacated slot: the leaf must not
				// keep the removed payload reachable.
				n.entries = slices.Delete(n.entries, i, i+1)
				return true
			}
		}
		return false
	}
	for i, r := range n.entries {
		if !r.box.Contains(b) || !t.remove(r.child, b, match, orphans) {
			continue
		}
		if len(r.child.entries) < t.minEntries {
			n.entries = slices.Delete(n.entries, i, i+1)
			*orphans = collectLeaves(r.child, *orphans)
		} else {
			r.box = r.child.boundingBox()
		}
		return true
	}
	return false
}

func collectLeaves[P any](n *node[P], out []*entry[P]) []*entry[P] {
	if n.leaf {
		return append(out, n.entries...)
	}
	for _, r := range n.entries {
		out = collectLeaves(r.child, out)
	}
	return out
}

func (t *Tree[P]) insert(n *node[P], e *entry[P]) []*entry[P] {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.maxEntries {
			return t.split(n)
		}
		return nil
	}
	// Choose the child needing least enlargement (ties: smaller volume).
	var best *entry[P]
	bestEnl, bestVol := math.Inf(1), math.Inf(1)
	for _, r := range n.entries {
		enl := r.box.enlargement(e.box)
		vol := r.box.Volume()
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = r, enl, vol
		}
	}
	best.box = best.box.Union(e.box)
	split := t.insert(best.child, e)
	if split == nil {
		return nil
	}
	for i, r := range n.entries {
		if r == best {
			n.entries[i] = split[0]
			n.entries = append(n.entries, split[1])
			break
		}
	}
	if len(n.entries) > t.maxEntries {
		return t.split(n)
	}
	return nil
}

// split is Guttman's quadratic split.
func (t *Tree[P]) split(n *node[P]) []*entry[P] {
	entries := n.entries
	// Pick the pair wasting the most volume as seeds.
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			waste := entries[i].box.Union(entries[j].box).Volume() -
				entries[i].box.Volume() - entries[j].box.Volume()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	g1 := &node[P]{leaf: n.leaf, entries: []*entry[P]{entries[s1]}}
	g2 := &node[P]{leaf: n.leaf, entries: []*entry[P]{entries[s2]}}
	b1, b2 := entries[s1].box, entries[s2].box

	rest := make([]*entry[P], 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// Force assignment if one group must take all remaining to reach m.
		if len(g1.entries)+len(rest) == t.minEntries {
			for _, e := range rest {
				g1.entries = append(g1.entries, e)
				b1 = b1.Union(e.box)
			}
			break
		}
		if len(g2.entries)+len(rest) == t.minEntries {
			for _, e := range rest {
				g2.entries = append(g2.entries, e)
				b2 = b2.Union(e.box)
			}
			break
		}
		// Pick the entry with the greatest preference difference.
		bestIdx, bestDiff := 0, -1.0
		for i, e := range rest {
			d1 := b1.enlargement(e.box)
			d2 := b2.enlargement(e.box)
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		e := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		d1, d2 := b1.enlargement(e.box), b2.enlargement(e.box)
		if d1 < d2 || (d1 == d2 && len(g1.entries) <= len(g2.entries)) {
			g1.entries = append(g1.entries, e)
			b1 = b1.Union(e.box)
		} else {
			g2.entries = append(g2.entries, e)
			b2 = b2.Union(e.box)
		}
	}
	return []*entry[P]{
		{box: b1, child: g1},
		{box: b2, child: g2},
	}
}

// Search returns the payloads of every indexed box intersecting q. The
// second return value counts the nodes visited (the query's I/O cost).
func (t *Tree[P]) Search(q Box) ([]P, int) {
	return t.SearchAppend(q, nil)
}

// SearchAppend is Search reusing the caller's buffer: results are
// appended to out[:0] and the (possibly grown) buffer is returned, so a
// hot probe path can amortize the hit slice across queries.
func (t *Tree[P]) SearchAppend(q Box, out []P) ([]P, int) {
	out = out[:0]
	if t.size == 0 {
		return out, 0
	}
	return searchNode(t.root, q, out, 0)
}

func searchNode[P any](n *node[P], q Box, out []P, visited int) ([]P, int) {
	visited++
	for _, e := range n.entries {
		if !e.box.Intersects(q) {
			continue
		}
		if n.leaf {
			out = append(out, e.payload)
		} else {
			out, visited = searchNode(e.child, q, out, visited)
		}
	}
	return out, visited
}

// Bounds returns the bounding box of every indexed box. ok is false for
// an empty tree.
func (t *Tree[P]) Bounds() (Box, bool) {
	if t.size == 0 {
		return Box{}, false
	}
	return t.root.boundingBox(), true
}

// height returns the tree height (1 for a single leaf root).
func (t *Tree[P]) height() int {
	h := 1
	n := t.root
	for !n.leaf {
		h++
		n = n.entries[0].child
	}
	return h
}

// CheckInvariants verifies the structure Insert and Delete maintain: every
// routing box covers its subtree, every node but the root holds between
// the minimum and maximum fill, every leaf sits at the same depth, and
// Len counts exactly the leaf entries.
func (t *Tree[P]) CheckInvariants() error {
	leaves, err := t.check(t.root, t.height())
	if err != nil {
		return err
	}
	if leaves != t.size {
		return fmt.Errorf("rtree: %d leaf entries, Len says %d", leaves, t.size)
	}
	return nil
}

// check validates the subtree under n, which must reach its leaves in
// exactly height levels, and returns its leaf-entry count.
func (t *Tree[P]) check(n *node[P], height int) (int, error) {
	if len(n.entries) > t.maxEntries {
		return 0, fmt.Errorf("rtree: node holds %d entries, max %d", len(n.entries), t.maxEntries)
	}
	if n.leaf {
		if height != 1 {
			return 0, fmt.Errorf("rtree: leaf %d levels above the leaf level", height-1)
		}
		return len(n.entries), nil
	}
	if height == 1 {
		return 0, fmt.Errorf("rtree: routing node at the leaf level")
	}
	leaves := 0
	for _, r := range n.entries {
		if len(r.child.entries) < t.minEntries {
			return 0, fmt.Errorf("rtree: child holds %d entries, min %d", len(r.child.entries), t.minEntries)
		}
		if !r.box.Contains(r.child.boundingBox()) {
			return 0, fmt.Errorf("rtree: routing box does not cover child")
		}
		sub, err := t.check(r.child, height-1)
		if err != nil {
			return 0, err
		}
		leaves += sub
	}
	return leaves, nil
}
