package feed

import (
	"slices"

	"strgindex/internal/rtree"
	"strgindex/internal/strg"
)

// subIndex is the index of registered queries a committed OG is evaluated
// against — the corpus-side trajectory index turned around. A subscription
// whose where tree has a required spatial/temporal conjunct is stored in an
// R-tree under that conjunct's probe box (query.Matcher.ProbeBox — the
// planner's necessary-condition argument: an OG the where tree accepts owns
// a step box intersecting it); an OG then finds its candidates by probing
// the tree with its own step boxes, the same decomposition the corpus index
// stores. Everything else — no where tree, an Or/Not root, attribute
// predicates only — sits in a registration-ordered list each OG walks.
// k-NN subscriptions are no exception: their set changes only when an OG
// their where tree accepts arrives. The index prunes; matcher.Match still
// decides.
//
// Probe boxes are half-open (a rectangle over all time), so both sides are
// clamped by rtree.Box.Finite, which keeps intersecting boxes intersecting.
// Not safe for concurrent use: the engine's dispatcher owns it.
type subIndex struct {
	tree   *rtree.Tree[*Subscription]
	always []*Subscription // ascending Subscription.n
	// stamp numbers the probed OGs; a subscription already stamped with the
	// current number was found through an earlier step box of the same OG.
	stamp uint64
	hits  []*Subscription // probe scratch
}

func newSubIndex() subIndex {
	t, err := rtree.New[*Subscription](0)
	if err != nil {
		panic(err) // unreachable: default capacity is always valid
	}
	return subIndex{tree: t}
}

// treeBox returns the box sub is stored under, or ok=false when it belongs
// on the always-evaluate list.
func treeBox(sub *Subscription) (rtree.Box, bool) {
	b, ok := sub.matcher.ProbeBox()
	if !ok {
		return rtree.Box{}, false
	}
	return b.Finite(), true
}

// add indexes a seeded subscription. Registrations arrive in counter order,
// so appending keeps always sorted.
func (x *subIndex) add(sub *Subscription) {
	if b, ok := treeBox(sub); ok {
		x.tree.Insert(b, sub)
		return
	}
	x.always = append(x.always, sub)
}

// remove drops sub from the index; a subscription that was never added (its
// seed failed) is a no-op.
func (x *subIndex) remove(sub *Subscription) {
	if b, ok := treeBox(sub); ok {
		x.tree.Delete(b, func(s *Subscription) bool { return s == sub })
		return
	}
	i, found := slices.BinarySearchFunc(x.always, sub.n, func(s *Subscription, n int) int { return s.n - n })
	if found {
		x.always = slices.Delete(x.always, i, i+1)
	}
}

// probe calls fn once for each tree-indexed subscription whose box one of
// og's step boxes intersects.
func (x *subIndex) probe(og *strg.OG, fn func(*Subscription)) {
	if x.tree.Len() == 0 {
		return
	}
	x.stamp++
	rtree.StepBoxes(og.Centroids, og.Frames, func(b rtree.Box) {
		x.hits, _ = x.tree.SearchAppend(b.Finite(), x.hits)
		for i, sub := range x.hits {
			x.hits[i] = nil // the scratch must not pin an unregistered subscription
			if sub.stamp != x.stamp {
				sub.stamp = x.stamp
				fn(sub)
			}
		}
	})
}
