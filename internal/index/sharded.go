package index

import (
	"context"
	"sync"
	"sync/atomic"

	"strgindex/internal/dist"
	"strgindex/internal/graph"
)

// Sharded is the served STRG-Index: one copy-on-write Tree behind one
// atomic pointer, safe for any number of concurrent readers alongside one
// writer at a time (writers are serialized internally). The name is kept
// for the callers that link it; there is one tree and no partitioning.
//
// # Concurrency protocol (RCU)
//
// The pointer always holds an immutable published tree. A reader loads it
// once and searches it without taking any lock. A writer clones the
// published tree (sharing every node), privatizes only the nodes its
// commit touches, and publishes the clone with one pointer store. Commits
// are fully ordered by the writer lock and each one is a single store, so
// every tree a reader can load holds exactly the commits published before
// its load — a prefix of commit history — and nothing of the commit in
// flight.
type Sharded[P any] struct {
	// mu serializes writers. Never held by readers.
	mu  sync.Mutex
	cur atomic.Pointer[Tree[P]]
}

// NewSharded creates an empty served STRG-Index.
func NewSharded[P any](cfg Config) *Sharded[P] {
	s := &Sharded[P]{}
	s.cur.Store(New[P](cfg))
	return s
}

// AddSegment commits the segment on a copy-on-write clone of the published
// tree, through the same root matching and commit step as Tree.AddSegment,
// then publishes the clone: queries keep reading the previous tree,
// lock-free, until the store. Unlike the plain Tree, a failed commit
// leaves the published tree unchanged (the clone is discarded). Matching
// the plain tree, a new root is created even when the segment carries no
// items (its background still routes future segments).
func (s *Sharded[P]) AddSegment(bg *graph.Graph, items []Item[P]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	nt := s.cur.Load().clone()
	x := &txn[P]{t: nt, cow: true}
	n := len(nt.roots)
	ri := nt.findOrCreateRoot(bg)
	if ri == n {
		x.own(nt.roots[ri])
	}
	if err := nt.addItemsAt(x, ri, items); err != nil {
		return err
	}
	s.cur.Store(nt)
	return nil
}

// Quiesce returns at once.
//
// Deprecated: splits run inline in the commit, so nothing is ever in
// flight.
func (s *Sharded[P]) Quiesce() {}

// View returns the published tree. The caller must not mutate it; queries
// on it are lock-free and safe alongside writers, and it never changes.
func (s *Sharded[P]) View() *Tree[P] { return s.cur.Load() }

// KNNStatsCtx is Tree.KNNStatsCtx over the published tree.
func (s *Sharded[P]) KNNStatsCtx(ctx context.Context, bg *graph.Graph, query dist.Sequence, k int) ([]Result[P], SearchStats, error) {
	return s.View().KNNStatsCtx(ctx, bg, query, k)
}

// KNNExactStatsCtx is Tree.KNNExactStatsCtx over the published tree.
func (s *Sharded[P]) KNNExactStatsCtx(ctx context.Context, bg *graph.Graph, query dist.Sequence, k int) ([]Result[P], SearchStats, error) {
	return s.View().KNNExactStatsCtx(ctx, bg, query, k)
}

// RangeStatsCtx is Tree.RangeStatsCtx over the published tree.
func (s *Sharded[P]) RangeStatsCtx(ctx context.Context, bg *graph.Graph, query dist.Sequence, radius float64) ([]Result[P], SearchStats, error) {
	return s.View().RangeStatsCtx(ctx, bg, query, radius)
}

// Cascade exposes the key metric's lower-bound cascade (never nil after
// construction: withDefaults fills it). External rankers use it so their
// distances are bit-identical to the index's own.
func (s *Sharded[P]) Cascade() dist.Cascade { return s.View().cfg.Cascade }

// Len returns the number of indexed OGs in the published tree.
func (s *Sharded[P]) Len() int { return s.View().Len() }

// NumRoots returns the number of root records.
func (s *Sharded[P]) NumRoots() int { return len(s.View().roots) }

// NumClusters returns the total number of cluster records.
func (s *Sharded[P]) NumClusters() int { return s.View().NumClusters() }

// MemoryBytes evaluates Equation 10 over the published tree.
func (s *Sharded[P]) MemoryBytes() int { return s.View().MemoryBytes() }

// Snapshot serializes the published tree with roots renumbered by position
// and clusters sequentially in snapshot order, so two trees holding the
// same logical state serialize identically however they were built (the
// anti-entropy digest and the cross-copy tests hash this image).
func (s *Sharded[P]) Snapshot() Snapshot[P] {
	snap := s.View().Snapshot()
	next := 0
	for j := range snap.Roots {
		snap.Roots[j].ID = j
		for k := range snap.Roots[j].Clusters {
			snap.Roots[j].Clusters[k].ID = next
			next++
		}
	}
	return snap
}

// NewShardedFromSnapshot reconstructs the served index from a snapshot
// (produced by Sharded.Snapshot or Tree.Snapshot) and verifies it.
func NewShardedFromSnapshot[P any](snap Snapshot[P], cfg Config) (*Sharded[P], error) {
	t := New[P](cfg)
	for _, rs := range snap.Roots {
		if err := t.restoreRoot(rs); err != nil {
			return nil, err
		}
	}
	if err := t.CheckInvariants(); err != nil {
		return nil, err
	}
	s := &Sharded[P]{}
	s.cur.Store(t)
	return s, nil
}
