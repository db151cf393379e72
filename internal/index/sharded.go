package index

import (
	"context"
	"sync"
	"sync/atomic"

	"strgindex/internal/dist"
	"strgindex/internal/graph"
)

// Sharded is an STRG-Index partitioned into independently versioned
// copy-on-write shards, safe for any number of concurrent readers
// alongside one writer at a time (writers are serialized internally).
//
// # Partitioning
//
// Shards partition root records (backgrounds), not raw segments: a root is
// assigned to shard hash(globalRootID) mod Shards when it is created, and
// every segment routed to that root — the deterministic SimGraph
// resolution of Algorithm 3 — lands on its shard forever. Because a root's
// internal structure (cluster seeding, centroid routing, occupancy splits)
// depends only on the sequence of segments addressed to it, and that
// sequence is independent of how roots are distributed, the per-root
// structure is identical at every shard count. A global root directory
// preserves creation order, so merged views enumerate roots exactly as a
// single tree would — which makes query results byte-identical to the
// single-shard (and plain Tree) build at every shard/worker setting.
//
// # Concurrency protocol (RCU)
//
// Each shard holds an atomic pointer to an immutable (tree, version)
// snapshot. Readers load the directory, then each shard pointer, assemble
// a merged read-only view and search it without taking any lock. A writer
// clones the target shard's tree (sharing all nodes), privatizes only the
// nodes it touches, then publishes: shard pointer first, directory second.
// Directory entries therefore always resolve — an entry is visible only
// after the snapshot holding its root is — and each query sees one
// consistent prefix of commit history (commits are fully ordered by the
// writer lock).
type Sharded[P any] struct {
	cfg     Config
	matcher *graph.Matcher
	n       int

	// mu serializes writers. Never held by readers.
	mu     sync.Mutex
	shards []shardSlot[P]
	dir    atomic.Pointer[[]rootEntry]
}

type shardSlot[P any] struct {
	cur atomic.Pointer[shardVersion[P]]
}

// shardVersion is one published immutable snapshot of a shard.
type shardVersion[P any] struct {
	tree    *Tree[P]
	version uint64
}

// rootEntry maps one global root (directory position = global root ID,
// creation order) to its home shard and the root's index inside that
// shard's tree.
type rootEntry struct {
	bg    *graph.Graph
	shard int
	local int
}

// MaxShards bounds Config.Shards: a shard is a unit of write concurrency,
// and no host runs more concurrent writers than this.
const MaxShards = 256

// NewSharded creates an empty sharded STRG-Index with cfg.Shards shards
// (clamped to [1, MaxShards]).
func NewSharded[P any](cfg Config) *Sharded[P] {
	cfg = cfg.withDefaults()
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	s := &Sharded[P]{cfg: cfg, matcher: graph.NewMatcher(cfg.Tol), n: n}
	s.shards = make([]shardSlot[P], n)
	for i := range s.shards {
		s.shards[i].cur.Store(&shardVersion[P]{tree: New[P](cfg)})
	}
	dir := []rootEntry{}
	s.dir.Store(&dir)
	return s
}

// shardOf assigns a global root ID to a shard: FNV-1a over the ID's
// little-endian bytes, mod the shard count. Deterministic for a fixed
// count; changing the count between restarts simply re-homes roots
// (results are shard-placement independent).
func (s *Sharded[P]) shardOf(globalID int) int {
	if s.n == 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	v := uint64(globalID)
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return int(h % uint64(s.n))
}

// ShardOfRoot exposes the deterministic global-root-ID → shard
// assignment (see shardOf). The replication layer groups a canonical
// snapshot's roots by shard with it to compute per-shard anti-entropy
// hashes that are stable across build paths.
func (s *Sharded[P]) ShardOfRoot(globalID int) int { return s.shardOf(globalID) }

// matchRoot applies matchBackground to the directory (creation order), so
// a segment routes exactly as the plain tree would route it.
func (s *Sharded[P]) matchRoot(dir []rootEntry, bg *graph.Graph) int {
	return matchBackground(s.matcher, s.cfg.BGSimThreshold, bg, len(dir),
		func(i int) *graph.Graph { return dir[i].bg })
}

// Route is a resolved commit destination: the root a segment's background
// matched (or a new root) and that root's home shard.
type Route struct {
	// Shard is the shard the commit lands on.
	Shard int
	bg    *graph.Graph
	// root is the matched root's directory position, -1 for a new root.
	root int
	// dirLen is the directory length the route was resolved against.
	dirLen int
}

// Route resolves where a segment with background bg commits: its matched
// root's home shard, or — for a background that will create a new root —
// the shard the next global root ID hashes to. Pure (no state changes), so
// the durability layer can log the shard before the commit mutates
// anything, then hand the route to AddRouted.
func (s *Sharded[P]) Route(bg *graph.Graph) Route {
	dir := *s.dir.Load()
	if gi := s.matchRoot(dir, bg); gi >= 0 {
		return Route{Shard: dir[gi].shard, bg: bg, root: gi, dirLen: len(dir)}
	}
	return Route{Shard: s.shardOf(len(dir)), bg: bg, root: -1, dirLen: len(dir)}
}

// publish installs tree as shard si's next snapshot. Caller holds s.mu.
func (s *Sharded[P]) publish(si int, tree *Tree[P]) {
	cur := s.shards[si].cur.Load()
	s.shards[si].cur.Store(&shardVersion[P]{tree: tree, version: cur.version + 1})
	shardVersionSwaps.Inc()
}

// AddSegment routes the segment to its root's shard and commits it on a
// copy-on-write clone of that shard's tree: queries keep reading the
// previous snapshot, lock-free, until the new version is published.
// Unlike the plain Tree, a failed commit leaves the shard completely
// unchanged (the clone is discarded).
func (s *Sharded[P]) AddSegment(bg *graph.Graph, items []Item[P]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commit(s.Route(bg), items)
}

// AddRouted is AddSegment along a route Route resolved, so the commit does
// not match the background a second time. The directory only grows, so a
// route stays exact until a commit creates a root; one resolved before
// that is resolved again.
func (s *Sharded[P]) AddRouted(r Route, items []Item[P]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.dirLen != len(*s.dir.Load()) {
		r = s.Route(r.bg)
	}
	return s.commit(r, items)
}

// commit applies one routed write through the shared batch path. Caller
// holds s.mu. Matching the plain tree, a new root is created even when the
// segment carries no items (its background still routes future segments).
func (s *Sharded[P]) commit(r Route, items []Item[P]) error {
	dir := *s.dir.Load()
	if r.root >= 0 && len(items) == 0 {
		return nil
	}
	nt := s.shards[r.Shard].cur.Load().tree.clone()
	x := &txn[P]{t: nt, cow: true}
	var local int
	if r.root >= 0 {
		local = dir[r.root].local
	} else {
		local = len(nt.roots)
		root := &rootRecord[P]{id: local, bg: r.bg}
		nt.roots = append(nt.roots, root)
		x.own(root)
	}
	if err := nt.addItemsAt(x, local, items); err != nil {
		return err
	}
	s.publish(r.Shard, nt)
	if r.root < 0 {
		nd := make([]rootEntry, len(dir), len(dir)+1)
		copy(nd, dir)
		nd = append(nd, rootEntry{bg: r.bg, shard: r.Shard, local: local})
		s.dir.Store(&nd)
	}
	return nil
}

// Quiesce returns at once.
//
// Deprecated: splits run inline in the commit, so nothing is ever in
// flight.
func (s *Sharded[P]) Quiesce() {}

// shardedView is one query's consistent read snapshot: a merged read-only
// tree plus the shard versions it was assembled from.
type shardedView[P any] struct {
	t        *Tree[P]
	versions []uint64
}

// view assembles the merged read-only tree: directory first, then each
// shard snapshot. The writer publishes in the opposite order (snapshot
// before directory), so every directory entry resolves in the snapshots
// loaded here; at most the view also carries roots newer than the
// directory, which it ignores by construction (it enumerates dir entries).
func (s *Sharded[P]) view() shardedView[P] {
	dir := *s.dir.Load()
	versions := make([]uint64, s.n)
	trees := make([]*Tree[P], s.n)
	size := 0
	for i := range s.shards {
		sv := s.shards[i].cur.Load()
		trees[i], versions[i] = sv.tree, sv.version
		size += sv.tree.size
	}
	roots := make([]*rootRecord[P], len(dir))
	for j, e := range dir {
		roots[j] = trees[e.shard].roots[e.local]
	}
	vt := &Tree[P]{cfg: s.cfg, matcher: s.matcher, roots: roots, size: size}
	return shardedView[P]{t: vt, versions: versions}
}

// observeStaleness records how many versions were published while the
// query ran: its snapshot's staleness at completion. Freshly acquired
// snapshots are never stale (readers always load the latest pointer), so
// a nonzero lag only means writes landed mid-query — the RCU trade.
func (s *Sharded[P]) observeStaleness(v shardedView[P]) {
	var lag uint64
	for i := range s.shards {
		if d := s.shards[i].cur.Load().version - v.versions[i]; d > lag {
			lag = d
		}
	}
	staleVersionLag.Set(int64(lag))
	if lag > 0 {
		staleReads.Inc()
	}
}

// View returns a read-only merged Tree over the current snapshots —
// byte-identical in structure and iteration order to the plain
// single-tree build of the same ingest sequence. The caller must not
// mutate it; queries on it are lock-free and safe alongside writers.
func (s *Sharded[P]) View() *Tree[P] { return s.view().t }

// KNNStatsCtx is Tree.KNNStatsCtx over a lock-free merged view.
func (s *Sharded[P]) KNNStatsCtx(ctx context.Context, bg *graph.Graph, query dist.Sequence, k int) ([]Result[P], SearchStats, error) {
	v := s.view()
	res, st, err := v.t.KNNStatsCtx(ctx, bg, query, k)
	s.observeStaleness(v)
	return res, st, err
}

// KNNExactStatsCtx is Tree.KNNExactStatsCtx over a lock-free merged view.
func (s *Sharded[P]) KNNExactStatsCtx(ctx context.Context, bg *graph.Graph, query dist.Sequence, k int) ([]Result[P], SearchStats, error) {
	v := s.view()
	res, st, err := v.t.KNNExactStatsCtx(ctx, bg, query, k)
	s.observeStaleness(v)
	return res, st, err
}

// RangeStatsCtx is Tree.RangeStatsCtx over a lock-free merged view.
func (s *Sharded[P]) RangeStatsCtx(ctx context.Context, bg *graph.Graph, query dist.Sequence, radius float64) ([]Result[P], SearchStats, error) {
	v := s.view()
	res, st, err := v.t.RangeStatsCtx(ctx, bg, query, radius)
	s.observeStaleness(v)
	return res, st, err
}

// NumShards returns the shard count.
func (s *Sharded[P]) NumShards() int { return s.n }

// Cascade exposes the key metric's lower-bound cascade (never nil after
// construction: withDefaults fills it). External rankers use it so their
// distances are bit-identical to the index's own.
func (s *Sharded[P]) Cascade() dist.Cascade { return s.cfg.Cascade }

// Versions returns each shard's published snapshot version. Versions are
// monotonic; the sum advances by one per committed write.
func (s *Sharded[P]) Versions() []uint64 {
	out := make([]uint64, s.n)
	for i := range s.shards {
		out[i] = s.shards[i].cur.Load().version
	}
	return out
}

// Len returns the number of indexed OGs (lock-free; exact between
// commits).
func (s *Sharded[P]) Len() int { return s.view().t.Len() }

// NumRoots returns the number of root records across all shards.
func (s *Sharded[P]) NumRoots() int { return len(*s.dir.Load()) }

// NumClusters returns the total number of cluster records.
func (s *Sharded[P]) NumClusters() int { return s.View().NumClusters() }

// MemoryBytes evaluates Equation 10 over the merged view.
func (s *Sharded[P]) MemoryBytes() int { return s.View().MemoryBytes() }

// Snapshot serializes the merged view in global root order, renumbering
// roots by directory position and clusters sequentially so the image is
// self-consistent regardless of shard count; NewShardedFromSnapshot
// restores it at any shard count.
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

// NewShardedFromSnapshot reconstructs a sharded index from a snapshot
// (produced by Sharded.Snapshot or Tree.Snapshot), re-homing each root by
// the hash of its position — the creation-order global ID — so any shard
// count restores the same logical database.
func NewShardedFromSnapshot[P any](snap Snapshot[P], cfg Config) (*Sharded[P], error) {
	s := NewSharded[P](cfg)
	trees := make([]*Tree[P], s.n)
	for i := range trees {
		trees[i] = s.shards[i].cur.Load().tree
	}
	dir := make([]rootEntry, 0, len(snap.Roots))
	for j, rs := range snap.Roots {
		si := s.shardOf(j)
		t := trees[si]
		local := len(t.roots)
		if err := t.restoreRoot(rs); err != nil {
			return nil, err
		}
		dir = append(dir, rootEntry{bg: t.roots[local].bg, shard: si, local: local})
	}
	for i, t := range trees {
		if err := t.CheckInvariants(); err != nil {
			return nil, err
		}
		s.shards[i].cur.Store(&shardVersion[P]{tree: t, version: 1})
	}
	s.dir.Store(&dir)
	return s, nil
}
