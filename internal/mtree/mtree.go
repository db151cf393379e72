// Package mtree implements the M-tree of Ciaccia, Patella and Zezula
// (VLDB 1997) — the baseline index the paper compares STRG-Index against
// (Section 6.3). It is a height-balanced metric access method: routing
// entries carry a pivot object, a covering radius and a subtree; leaf
// entries carry the indexed objects.
//
// Two promotion policies from the original paper are provided, matching
// the experiment's MT-RA and MT-SA variants: RANDOM promotes two random
// entries on split, SAMPLING draws several candidate pairs and keeps the
// pair minimizing the larger covering radius.
//
// The tree is generic over the payload type; the indexed key is a
// dist.Sequence under a caller-supplied metric (EGED_M in the experiments,
// so both indexes measure the same distance).
package mtree

import (
	"fmt"
	"math"
	"math/rand"

	"strgindex/internal/dist"
)

// PromotePolicy selects how a split chooses the two routing pivots.
type PromotePolicy int

const (
	// PromoteRandom is the RANDOM policy (MT-RA): the fastest split, two
	// uniformly random entries become pivots.
	PromoteRandom PromotePolicy = iota
	// PromoteSampling is the SAMPLING policy (MT-SA): sampleSize candidate
	// pairs are drawn and the pair with the smallest larger covering
	// radius after partitioning wins — slower splits, tighter regions.
	PromoteSampling
)

// String implements fmt.Stringer.
func (p PromotePolicy) String() string {
	switch p {
	case PromoteRandom:
		return "MT-RA"
	case PromoteSampling:
		return "MT-SA"
	default:
		return fmt.Sprintf("PromotePolicy(%d)", int(p))
	}
}

// sampleSize is the number of candidate pivot pairs the SAMPLING policy
// evaluates per split.
const sampleSize = 10

// Config parameterizes an M-tree.
type Config struct {
	// Metric is the distance; it must satisfy the metric axioms or
	// pruning becomes unsound. Required.
	Metric dist.Metric
	// MaxEntries is the node capacity before splitting. Zero means 16.
	MaxEntries int
	// Policy selects the split promotion strategy.
	Policy PromotePolicy
	// Seed drives the randomized promotion choices.
	Seed int64
}

// Tree is an M-tree over sequence-keyed payloads. Not safe for concurrent
// mutation.
type Tree[P any] struct {
	metric     dist.Metric
	maxEntries int
	policy     PromotePolicy
	rng        *rand.Rand
	root       *node[P]
	size       int
}

type entry[P any] struct {
	seq dist.Sequence
	// payload is set on leaf entries only.
	payload P
	// parentDist is the distance to the parent routing pivot (unused at
	// the root).
	parentDist float64
	// radius and child are set on routing entries only.
	radius float64
	child  *node[P]
}

type node[P any] struct {
	leaf    bool
	entries []*entry[P]
}

// New creates an empty M-tree.
func New[P any](cfg Config) (*Tree[P], error) {
	if cfg.Metric == nil {
		return nil, fmt.Errorf("mtree: nil metric")
	}
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = 16
	}
	if cfg.MaxEntries < 4 {
		return nil, fmt.Errorf("mtree: MaxEntries %d < 4", cfg.MaxEntries)
	}
	return &Tree[P]{
		metric:     cfg.Metric,
		maxEntries: cfg.MaxEntries,
		policy:     cfg.Policy,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		root:       &node[P]{leaf: true},
	}, nil
}

// Len returns the number of indexed objects.
func (t *Tree[P]) Len() int { return t.size }

// Insert adds one object to the tree.
func (t *Tree[P]) Insert(seq dist.Sequence, payload P) {
	e := &entry[P]{seq: seq, payload: payload}
	split := t.insert(t.root, e)
	if split != nil {
		// Root overflow: grow a new root referencing the two halves.
		newRoot := &node[P]{leaf: false, entries: []*entry[P]{split[0], split[1]}}
		t.root = newRoot
	}
	t.size++
}

// insert descends to a leaf and returns a pair of routing entries if the
// child had to split, nil otherwise.
func (t *Tree[P]) insert(n *node[P], e *entry[P]) []*entry[P] {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.maxEntries {
			return t.split(n)
		}
		return nil
	}
	// Subtree choice: prefer a routing entry already covering the object
	// (minimal distance); otherwise minimal radius expansion.
	var best *entry[P]
	bestD := math.Inf(1)
	covered := false
	for _, r := range n.entries {
		d := t.metric(e.seq, r.seq)
		if d <= r.radius {
			if !covered || d < bestD {
				best, bestD, covered = r, d, true
			}
		} else if !covered {
			if expand := d - r.radius; expand < bestD {
				best, bestD = r, expand
			}
		}
	}
	d := t.metric(e.seq, best.seq)
	if d > best.radius {
		best.radius = d
	}
	e.parentDist = d
	split := t.insert(best.child, e)
	if split == nil {
		return nil
	}
	// Replace the split routing entry with the two promoted ones.
	t.replaceEntry(n, best, split)
	if len(n.entries) > t.maxEntries {
		return t.split(n)
	}
	return nil
}

func (t *Tree[P]) replaceEntry(n *node[P], old *entry[P], repl []*entry[P]) {
	for i, e := range n.entries {
		if e == old {
			n.entries[i] = repl[0]
			n.entries = append(n.entries, repl[1])
			return
		}
	}
	panic("mtree: routing entry vanished during split")
}

// split promotes two pivots from n's entries, partitions the entries by
// nearest pivot (generalized hyperplane) and returns the two new routing
// entries.
func (t *Tree[P]) split(n *node[P]) []*entry[P] {
	entries := n.entries
	i1, i2 := t.promote(entries)
	p1, p2 := entries[i1], entries[i2]

	n1 := &node[P]{leaf: n.leaf}
	n2 := &node[P]{leaf: n.leaf}
	r1 := &entry[P]{seq: p1.seq, child: n1}
	r2 := &entry[P]{seq: p2.seq, child: n2}
	partition(t.metric, entries, p1, p2, r1, r2, n1, n2)
	return []*entry[P]{r1, r2}
}

// partition distributes entries to the nearer of the two pivots, updating
// parent distances and covering radii.
func partition[P any](metric dist.Metric, entries []*entry[P], p1, p2 *entry[P], r1, r2 *entry[P], n1, n2 *node[P]) {
	for _, e := range entries {
		d1 := metric(e.seq, p1.seq)
		d2 := metric(e.seq, p2.seq)
		if d1 <= d2 {
			e.parentDist = d1
			n1.entries = append(n1.entries, e)
			if cover := d1 + e.radius; cover > r1.radius {
				r1.radius = cover
			}
		} else {
			e.parentDist = d2
			n2.entries = append(n2.entries, e)
			if cover := d2 + e.radius; cover > r2.radius {
				r2.radius = cover
			}
		}
	}
}

// promote returns the indices of the two pivot entries per the policy.
func (t *Tree[P]) promote(entries []*entry[P]) (int, int) {
	n := len(entries)
	pick2 := func() (int, int) {
		i := t.rng.Intn(n)
		j := t.rng.Intn(n - 1)
		if j >= i {
			j++
		}
		return i, j
	}
	if t.policy == PromoteRandom {
		return pick2()
	}
	// SAMPLING: evaluate candidate pairs by the larger covering radius of
	// the induced partition; fewer distance computations than the
	// confirmed m_RAD policy, far tighter than RANDOM.
	bestI, bestJ := pick2()
	bestCost := t.partitionCost(entries, bestI, bestJ)
	for s := 1; s < sampleSize; s++ {
		i, j := pick2()
		if cost := t.partitionCost(entries, i, j); cost < bestCost {
			bestI, bestJ, bestCost = i, j, cost
		}
	}
	return bestI, bestJ
}

// partitionCost is the larger covering radius after a hypothetical
// generalized-hyperplane partition around pivots i and j.
func (t *Tree[P]) partitionCost(entries []*entry[P], i, j int) float64 {
	var rad1, rad2 float64
	for _, e := range entries {
		d1 := t.metric(e.seq, entries[i].seq)
		d2 := t.metric(e.seq, entries[j].seq)
		if d1 <= d2 {
			if cover := d1 + e.radius; cover > rad1 {
				rad1 = cover
			}
		} else {
			if cover := d2 + e.radius; cover > rad2 {
				rad2 = cover
			}
		}
	}
	return math.Max(rad1, rad2)
}

// Result is one k-NN search hit.
type Result[P any] struct {
	Payload  P
	Distance float64
}

// KNN returns the k nearest objects to the query, closest first. Pruning
// uses the covering radii, so the metric axioms are load-bearing.
func (t *Tree[P]) KNN(query dist.Sequence, k int) []Result[P] {
	if k <= 0 || t.size == 0 {
		return nil
	}
	// Candidate priority queue over subtrees, keyed by the minimum
	// possible distance.
	type cand struct {
		n    *node[P]
		dmin float64
	}
	pq := &minHeap[cand]{less: func(a, b cand) bool { return a.dmin < b.dmin }}
	pq.push(cand{n: t.root, dmin: 0})

	best := &maxHeap[Result[P]]{less: func(a, b Result[P]) bool { return a.Distance < b.Distance }}
	kth := func() float64 {
		if best.len() < k {
			return math.Inf(1)
		}
		return best.peek().Distance
	}

	for pq.len() > 0 {
		c := pq.pop()
		if c.dmin > kth() {
			break // everything left is farther than the current k-th
		}
		if c.n.leaf {
			for _, e := range c.n.entries {
				d := t.metric(query, e.seq)
				if d <= kth() {
					best.push(Result[P]{Payload: e.payload, Distance: d})
					if best.len() > k {
						best.pop()
					}
				}
			}
			continue
		}
		for _, r := range c.n.entries {
			d := t.metric(query, r.seq)
			dmin := math.Max(0, d-r.radius)
			if dmin <= kth() {
				pq.push(cand{n: r.child, dmin: dmin})
			}
		}
	}
	out := make([]Result[P], best.len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = best.pop()
	}
	return out
}

// CheckInvariants verifies the covering-radius invariant: every object in a
// routing entry's subtree lies within the entry's radius of its pivot. It
// returns an error naming the first violation. Intended for tests.
func (t *Tree[P]) CheckInvariants() error {
	return t.check(t.root)
}

func (t *Tree[P]) check(n *node[P]) error {
	if n.leaf {
		return nil
	}
	for _, r := range n.entries {
		var objs []dist.Sequence
		collect(r.child, &objs)
		for _, o := range objs {
			if d := t.metric(o, r.seq); d > r.radius+1e-9 {
				return fmt.Errorf("mtree: object at distance %v outside covering radius %v", d, r.radius)
			}
		}
		if err := t.check(r.child); err != nil {
			return err
		}
	}
	return nil
}

func collect[P any](n *node[P], out *[]dist.Sequence) {
	if n.leaf {
		for _, e := range n.entries {
			*out = append(*out, e.seq)
		}
		return
	}
	for _, r := range n.entries {
		collect(r.child, out)
	}
}
