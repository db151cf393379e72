package index

import (
	"context"
	"sync"
	"sync/atomic"

	"strgindex/internal/cluster"
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
// internal structure (cluster bootstrap, centroid routing, BIC splits)
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
	async   bool

	// mu serializes writers (ingest, adopted async splits). Never held by
	// readers.
	mu     sync.Mutex
	shards []shardSlot[P]
	dir    atomic.Pointer[[]rootEntry]
	// wg tracks in-flight asynchronous split evaluations (Quiesce waits).
	wg sync.WaitGroup
	// evaluating holds the clusters with a split evaluation in flight, so
	// commits into a cluster that is still being fitted do not start a
	// second fit over nearly the same membership. The value marks the entry
	// dirty: a candidate was skipped, so the running evaluation owes one
	// more round. Guarded by mu.
	evaluating map[splitKey]bool
}

// splitKey names one cluster across the index: cluster IDs are unique per
// shard tree.
type splitKey struct{ shard, clusterID int }

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
// (clamped to [1, MaxShards]) and cfg.AsyncSplit deciding whether BIC
// splits run inline on the write path or on background goroutines.
func NewSharded[P any](cfg Config) *Sharded[P] {
	cfg = cfg.withDefaults()
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	s := &Sharded[P]{cfg: cfg, matcher: graph.NewMatcher(cfg.Tol), n: n, async: cfg.AsyncSplit,
		evaluating: make(map[splitKey]bool)}
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

// RouteShard returns the shard a segment with background bg commits to:
// its matched root's home shard, or — for a background that will create a
// new root — the shard the next global root ID hashes to. Pure (no state
// changes), so the durability layer can log the route before the commit
// mutates anything. Callers must not interleave other writes between
// RouteShard and the AddSegment it describes.
func (s *Sharded[P]) RouteShard(bg *graph.Graph) int {
	dir := *s.dir.Load()
	if gi := s.matchRoot(dir, bg); gi >= 0 {
		return dir[gi].shard
	}
	return s.shardOf(len(dir))
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
	dir := *s.dir.Load()
	gi := s.matchRoot(dir, bg)
	if gi >= 0 {
		if len(items) == 0 {
			return nil
		}
		e := dir[gi]
		nt := s.shards[e.shard].cur.Load().tree.clone()
		x := &txn[P]{t: nt, cow: true, rootIdx: e.local, deferSplit: s.async}
		if err := nt.addItemsAt(x, e.local, items); err != nil {
			return err
		}
		s.publish(e.shard, nt)
		s.spawnSplits(e.shard, x.splitCands)
		return nil
	}
	// New root: home it on the shard its global ID hashes to. Matching the
	// plain tree, the root is created even when the segment carries no
	// items (its background still routes future segments).
	si := s.shardOf(len(dir))
	nt := s.shards[si].cur.Load().tree.clone()
	local := len(nt.roots)
	root := &rootRecord[P]{id: local, bg: bg}
	nt.roots = append(nt.roots, root)
	x := &txn[P]{t: nt, cow: true, rootIdx: local, deferSplit: s.async}
	x.own(root)
	if len(items) > 0 {
		if err := nt.addItemsAt(x, local, items); err != nil {
			return err
		}
	}
	s.publish(si, nt)
	nd := make([]rootEntry, len(dir), len(dir)+1)
	copy(nd, dir)
	nd = append(nd, rootEntry{bg: bg, shard: si, local: local})
	s.dir.Store(&nd)
	s.spawnSplits(si, x.splitCands)
	return nil
}

// spawnSplits hands deferred split candidates to background evaluation,
// at most one in flight per cluster: a candidate for a cluster that is
// still being fitted marks the running evaluation dirty instead, and
// asyncSplit runs another round for it. Caller holds s.mu (candidates
// reference the just-published snapshot).
func (s *Sharded[P]) spawnSplits(si int, cands []splitCand) {
	for _, c := range cands {
		k := splitKey{si, c.clusterID}
		if _, running := s.evaluating[k]; running {
			s.evaluating[k] = true
			continue
		}
		s.evaluating[k] = false
		s.wg.Add(1)
		go s.asyncSplit(si, c)
	}
}

// asyncSplit evaluates cluster c until a round ends with no candidate
// skipped since it began. Every commit into an over-full leaf yields a
// candidate, so a clean exit — decided under the same s.mu hold that
// clears the in-flight entry — means the last fit saw the published
// membership. One extra round per skipped commit at most: the loop ends
// when ingest into the cluster does.
func (s *Sharded[P]) asyncSplit(si int, c splitCand) {
	defer s.wg.Done()
	k := splitKey{si, c.clusterID}
	for {
		s.evalSplit(si, c)
		s.mu.Lock()
		if !s.evaluating[k] {
			delete(s.evaluating, k)
			s.mu.Unlock()
			return
		}
		s.evaluating[k] = false
		s.mu.Unlock()
	}
}

// evalSplit runs one deferred Section 5.3 evaluation: fit the one- and
// two-component models against the cluster's published membership with no
// lock held, then revalidate under the writer lock — the cluster record
// pointer must be unchanged, i.e. no commit touched the leaf since the
// candidate snapshot — and publish the split on a fresh clone. A changed
// cluster drops the fit; the commit that changed it marked the evaluation
// dirty, so asyncSplit comes back with the new membership.
func (s *Sharded[P]) evalSplit(si int, c splitCand) {
	sv := s.shards[si].cur.Load()
	if c.rootIdx >= len(sv.tree.roots) {
		return
	}
	root := sv.tree.roots[c.rootIdx]
	ci := findClusterByID(root, c.clusterID)
	if ci < 0 {
		return
	}
	cl := root.clusters[ci]
	if len(cl.leaf) <= s.cfg.MaxLeafEntries {
		return
	}
	s.mu.Lock()
	skip := cl.splitChecked == len(cl.leaf)
	s.mu.Unlock()
	if skip {
		return
	}
	seqs := make([]dist.Sequence, len(cl.leaf))
	for i, rec := range cl.leaf {
		seqs[i] = rec.seq
	}
	dec, err := cluster.SplitEval(seqs, sv.tree.clusterCfg())
	splitEvals.Inc()
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.shards[si].cur.Load()
	if c.rootIdx >= len(cur.tree.roots) {
		return
	}
	curRoot := cur.tree.roots[c.rootIdx]
	ci = findClusterByID(curRoot, c.clusterID)
	if ci < 0 || curRoot.clusters[ci] != cl {
		return
	}
	if !dec.Adopt {
		// Remember the declined size on the shared record — advisory
		// state readers never touch, written only under s.mu.
		cl.splitChecked = len(cl.leaf)
		return
	}
	nt := cur.tree.clone()
	x := &txn[P]{t: nt, cow: true}
	r := x.root(c.rootIdx)
	target := x.cluster(r, ci)
	if nt.applySplit(r, target, dec.Two) {
		s.publish(si, nt)
		splitsAsync.Inc()
	} else {
		cl.splitChecked = len(cl.leaf)
	}
}

// findClusterByID locates a cluster record by ID within a root (IDs are
// unique per shard tree and stable across copy-on-write).
func findClusterByID[P any](root *rootRecord[P], id int) int {
	for i, cl := range root.clusters {
		if cl.id == id {
			return i
		}
	}
	return -1
}

// Quiesce waits until no asynchronous split evaluation is in flight.
// Deterministic tests and shutdown paths call it before inspecting or
// serializing state.
func (s *Sharded[P]) Quiesce() { s.wg.Wait() }

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
// monotonic; the sum advances by one per committed write (or adopted
// async split).
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
