// Package index implements the STRG-Index of Section 5: a three-level
// tree over decomposed video.
//
//   - The root node holds one record per Background Graph (iD, BG, ptr).
//   - Each cluster node holds the centroid Object Graphs of the clusters
//     sharing that background (iD, OG_clus, ptr).
//   - Each leaf node holds the member OGs of one cluster, keyed by
//     Key = EGED_M(OG_mem, OG_clus) — a metric, so the key supports
//     triangle-inequality pruning.
//
// Construction follows Algorithm 2 (cluster the OGs with EM over the
// non-metric EGED, then insert members sorted by key), node splitting
// follows Section 5.3 (EM with K = 2 adopted when it improves BIC), and
// search follows Algorithm 3 (match the query background by SimGraph,
// descend to the most similar centroid, then k-NN the leaf with key
// pruning).
package index

import (
	"context"
	"fmt"
	"math"
	"sort"

	"strgindex/internal/cluster"
	"strgindex/internal/dist"
	"strgindex/internal/graph"
	"strgindex/internal/parallel"
)

// Config parameterizes an STRG-Index.
type Config struct {
	// Metric is the leaf key metric — EGED_M in the paper. It must satisfy
	// the metric axioms for key pruning to be sound. Nil means EGED_M with
	// the zero gap.
	Metric dist.Metric
	// Cascade supplies the key metric's lower-bound cascade (admissible
	// bounds + early-abandoning kernel) for filter-and-refine leaf scans.
	// Nil means: the default cascade for the default metric (EGED_M, zero
	// gap) when Metric is nil, or exact-only evaluation when a custom
	// Metric is set (its bounds are unknown). When Cascade is set and
	// Metric is nil, the cascade's metric becomes the key metric. Results
	// are byte-identical with the cascade on or off: bounds are
	// admissible and abandonment only fires strictly above the pruning
	// threshold.
	Cascade dist.Cascade
	// DisableCascade forces exact-only evaluation even for the default
	// metric (ablation/benchmark knob).
	DisableCascade bool
	// ClusterDistance is the (possibly non-metric) distance used to build
	// and choose clusters — the non-metric EGED in the paper. Nil means
	// dist.EGED.
	ClusterDistance dist.Metric
	// NumClusters fixes K per background when positive; zero selects K by
	// BIC over 1..MaxClusters (Section 4.2).
	NumClusters int
	// MaxClusters bounds the BIC scan. Zero means 15, the paper's Figure 8
	// range.
	MaxClusters int
	// MaxLeafEntries is the leaf occupancy that triggers a split check
	// (Section 5.3). Zero means 32.
	MaxLeafEntries int
	// BGSimThreshold is the minimum SimGraph at which an incoming
	// background is considered the same as a stored one, sharing its root
	// record. Zero means 0.75.
	BGSimThreshold float64
	// Tol is the matching tolerance for background comparison.
	Tol graph.Tolerance
	// Seed drives clustering initialization.
	Seed int64
	// EMMaxIter bounds clustering iterations. Zero means 50.
	EMMaxIter int
	// Shards is the number of copy-on-write partitions a Sharded index
	// splits its roots across (clamped to [1, MaxShards]; plain Trees
	// ignore it). Query results are identical at every setting — sharding
	// only changes which snapshot a root lives in.
	Shards int
	// AsyncSplit defers Section 5.3 split evaluations from the Sharded
	// ingest path to background goroutines (plain Trees ignore it). Splits
	// still publish through the writer lock; only the EM fits move off the
	// commit path, so ingest latency stops paying for them.
	AsyncSplit bool
	// Concurrency bounds the worker pool used throughout the index: the
	// pairwise matrices of EM clustering during construction and splits,
	// the centroid descent of insertion and search, and the per-leaf scans
	// of KNNExact and Range. 0 means one worker per CPU; 1 reproduces the
	// fully sequential paper evaluation. Results are identical at every
	// setting — parallelism only reschedules the distance evaluations.
	Concurrency int
}

func (c Config) withDefaults() Config {
	switch {
	case c.DisableCascade:
		if c.Metric == nil {
			if c.Cascade != nil {
				c.Metric = c.Cascade.Metric
			} else {
				c.Metric = dist.EGEDMZero
			}
		}
		c.Cascade = dist.ExactOnly(c.Metric)
	case c.Cascade != nil:
		if c.Metric == nil {
			c.Metric = c.Cascade.Metric
		}
	case c.Metric == nil:
		c.Metric = dist.EGEDMZero
		c.Cascade = dist.EGEDMCascade(nil)
	default:
		// A custom metric without a declared cascade: bounds unknown, so
		// every candidate is refined exactly (pre-cascade behavior).
		c.Cascade = dist.ExactOnly(c.Metric)
	}
	if c.ClusterDistance == nil {
		c.ClusterDistance = dist.EGED
	}
	if c.MaxClusters <= 0 {
		c.MaxClusters = 15
	}
	if c.MaxLeafEntries <= 0 {
		c.MaxLeafEntries = 32
	}
	if c.BGSimThreshold <= 0 {
		c.BGSimThreshold = 0.75
	}
	if c.Tol == (graph.Tolerance{}) {
		c.Tol = graph.DefaultTolerance()
	}
	if c.EMMaxIter <= 0 {
		c.EMMaxIter = 50
	}
	return c
}

// Item is one Object Graph to index: its attribute sequence plus the
// payload the leaf record points at (the video clip reference).
type Item[P any] struct {
	Seq     dist.Sequence
	Payload P
}

// Result is one search hit.
type Result[P any] struct {
	Payload  P
	Distance float64
}

// leafRecord is one record of a leaf node: (Key, OG_mem, ptr), extended
// with the lower-bound cascade's per-sequence precomputation (gap sum and
// envelope), derived from seq at insert/restore time and never serialized.
type leafRecord[P any] struct {
	key     float64
	seq     dist.Sequence
	payload P
	sum     dist.Summary
	// col is the columnar form of seq — the same float64s flattened into
	// one contiguous block for the batched DP kernel. seq's vectors are
	// views into col's buffer, so the data exists exactly once.
	col dist.Block
}

// newLeafRecord builds a leaf record for seq under centroid: the key is
// the metric distance to the centroid, the summary is the cascade's
// precomputation. The sequence is flattened once here and
// re-exposed as views into the block, so the batched kernel and the
// pointer-based bounds share one copy of the floats.
func (t *Tree[P]) newLeafRecord(centroid, seq dist.Sequence, payload P) leafRecord[P] {
	col := dist.FromSequence(seq)
	seq = col.Sequence()
	return leafRecord[P]{
		key:     t.cfg.Metric(seq, centroid),
		seq:     seq,
		payload: payload,
		sum:     t.cfg.Cascade.Summarize(seq),
		col:     col,
	}
}

// clusterRecord is one record of a cluster node: (iD_clus, OG_clus, ptr to
// leaf). Leaf entries are kept sorted by key.
type clusterRecord[P any] struct {
	id       int
	centroid dist.Sequence
	leaf     []leafRecord[P]
	// splitChecked is the leaf size at which the last BIC evaluation
	// declined to split, 0 if never evaluated (or since an adopted split
	// re-formed the cluster). Cluster quality cannot have degraded
	// while the membership is unchanged, so an occupancy check at the same
	// size skips the two EM refits — the incremental half of Section 5.3.
	// Advisory state: searches never read it, writers are serialized, so
	// the copy-on-write path may update it in place on a shared record.
	splitChecked int
}

func (c *clusterRecord[P]) maxKey() float64 {
	if len(c.leaf) == 0 {
		return 0
	}
	return c.leaf[len(c.leaf)-1].key
}

// rootRecord is one record of the root node: (iD_root, BG_r, ptr to a
// cluster node).
type rootRecord[P any] struct {
	id       int
	bg       *graph.Graph
	clusters []*clusterRecord[P]
}

// Tree is an STRG-Index. Not safe for concurrent mutation; Sharded wraps
// trees in copy-on-write snapshots for concurrent readers.
type Tree[P any] struct {
	cfg     Config
	matcher *graph.Matcher
	roots   []*rootRecord[P]
	size    int
	nextCl  int
}

// clone returns a shallow copy sharing every root record — the starting
// point of a copy-on-write transaction, which then privatizes only the
// nodes it touches via txn.
func (t *Tree[P]) clone() *Tree[P] {
	c := *t
	c.roots = append([]*rootRecord[P](nil), t.roots...)
	return &c
}

// New creates an empty STRG-Index.
func New[P any](cfg Config) *Tree[P] {
	cfg = cfg.withDefaults()
	return &Tree[P]{cfg: cfg, matcher: graph.NewMatcher(cfg.Tol)}
}

// Len returns the number of indexed OGs.
func (t *Tree[P]) Len() int { return t.size }

// NumClusters returns the total number of cluster records.
func (t *Tree[P]) NumClusters() int {
	n := 0
	for _, r := range t.roots {
		n += len(r.clusters)
	}
	return n
}

// txn tracks one mutation's copy-on-write state. A plain tree mutates in
// place (cow false: root/cluster return the nodes as-is); a Sharded write
// runs on a fresh clone with cow true, privatizing each touched node once
// so published snapshots stay immutable. With deferSplit set, occupancy
// checks collect split candidates for the asynchronous evaluator instead
// of fitting EM inline.
type txn[P any] struct {
	t   *Tree[P]
	cow bool
	// owned marks nodes this transaction created or already privatized.
	owned map[any]bool
	// rootIdx is the root the current insert batch targets (for split
	// candidates).
	rootIdx    int
	deferSplit bool
	splitCands []splitCand
}

// splitCand identifies an oversized cluster awaiting a deferred BIC
// evaluation.
type splitCand struct {
	rootIdx   int
	clusterID int
}

func (x *txn[P]) own(node any) {
	if x.cow {
		if x.owned == nil {
			x.owned = make(map[any]bool)
		}
		x.owned[node] = true
	}
}

// root returns the root at index i, privatized if this is a COW
// transaction: the copy shares cluster pointers until cluster() privatizes
// them individually.
func (x *txn[P]) root(i int) *rootRecord[P] {
	r := x.t.roots[i]
	if !x.cow || x.owned[r] {
		return r
	}
	c := *r
	c.clusters = append([]*clusterRecord[P](nil), r.clusters...)
	x.t.roots[i] = &c
	x.own(&c)
	return &c
}

// cluster returns root's ci-th cluster, privatized (leaf slice copied) if
// this is a COW transaction. root must itself already be private.
func (x *txn[P]) cluster(root *rootRecord[P], ci int) *clusterRecord[P] {
	cl := root.clusters[ci]
	if !x.cow || x.owned[cl] {
		return cl
	}
	c := *cl
	c.leaf = append([]leafRecord[P](nil), cl.leaf...)
	root.clusters[ci] = &c
	x.own(&c)
	return &c
}

// AddSegment indexes one decomposed segment: its background graph plus its
// OGs (Algorithm 2). If bg matches an existing root record by SimGraph the
// OGs join that root's cluster node; otherwise a new root record is
// created. bg may be nil for pure trajectory workloads (the synthetic
// experiments), in which case all items share a single nil-background
// root.
func (t *Tree[P]) AddSegment(bg *graph.Graph, items []Item[P]) error {
	x := &txn[P]{t: t}
	x.rootIdx = t.findOrCreateRoot(bg)
	if len(items) == 0 {
		return nil
	}
	return t.addItemsAt(x, x.rootIdx, items)
}

// addItemsAt inserts items into the root at index ri under the given
// transaction: EM bootstrap for an empty root, per-item centroid routing
// otherwise.
func (t *Tree[P]) addItemsAt(x *txn[P], ri int, items []Item[P]) error {
	root := x.root(ri)
	if len(root.clusters) == 0 {
		return t.buildClusters(x, root, items)
	}
	// With deferred splits the cluster set is frozen for the whole batch,
	// so every item's routing can be computed up front and each touched
	// leaf rebuilt in one merge — O(n log n) against the O(n²) shifting
	// of per-item sorted inserts, the difference between minutes and
	// hours at million-OG batches. With inline splits a mid-batch split
	// changes the routing of later items, so the per-item path stands.
	if x.deferSplit && len(items) > 1 {
		return t.bulkInsert(x, root, items)
	}
	for _, it := range items {
		if err := t.insertIntoRoot(x, root, it); err != nil {
			return err
		}
	}
	return nil
}

// bulkInsert routes a whole batch against the frozen cluster set and
// merges each cluster's newcomers into its leaf in one pass. The final
// leaf contents are byte-identical to per-item insertIntoRoot calls:
// routing sees the same centroids (no inline splits), records are keyed
// identically, and sortedLeaf/mergeLeaf replicate
// insertSorted's arrival-tie order. Only the split-candidate list
// differs — one candidate per touched oversized cluster instead of one
// per insert — which the asynchronous evaluator treats identically
// (duplicates were already collapsed by its revalidation).
func (t *Tree[P]) bulkInsert(x *txn[P], root *rootRecord[P], items []Item[P]) error {
	buckets := make([][]int, len(root.clusters))
	for i, it := range items {
		ci := argminCluster(root.clusters, it.Seq, t.cfg.ClusterDistance, t.cfg.Concurrency)
		if ci < 0 {
			return fmt.Errorf("index: root %d has no clusters", root.id)
		}
		buckets[ci] = append(buckets[ci], i)
	}
	for ci, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		cl := x.cluster(root, ci)
		recs := make([]leafRecord[P], len(bucket))
		for bi, i := range bucket {
			recs[bi] = t.newLeafRecord(cl.centroid, items[i].Seq, items[i].Payload)
		}
		cl.leaf = mergeLeaf(cl.leaf, sortedLeaf(recs))
		t.size += len(bucket)
		t.maybeSplit(x, root, cl)
	}
	return nil
}

// matchBackground is the one background-matching rule (Algorithm 3 step 2),
// shared by ingest routing and search: among n stored backgrounds in
// creation order, a nil bg matches the first nil one; any other bg matches
// the stored background with the highest SimGraph (the first on ties),
// provided it reaches threshold. It returns the match's position, or -1.
func matchBackground(m *graph.Matcher, threshold float64, bg *graph.Graph, n int, stored func(int) *graph.Graph) int {
	if bg == nil {
		for i := 0; i < n; i++ {
			if stored(i) == nil {
				return i
			}
		}
		return -1
	}
	best, bestSim := -1, 0.0
	for i := 0; i < n; i++ {
		if sb := stored(i); sb != nil {
			if sim := m.SimGraph(bg, sb); sim > bestSim {
				best, bestSim = i, sim
			}
		}
	}
	if bestSim < threshold {
		return -1
	}
	return best
}

// matchRoot applies matchBackground to the tree's root records.
func (t *Tree[P]) matchRoot(bg *graph.Graph) int {
	return matchBackground(t.matcher, t.cfg.BGSimThreshold, bg, len(t.roots),
		func(i int) *graph.Graph { return t.roots[i].bg })
}

// findOrCreateRoot returns the index of the root record bg matches,
// appending a new one when none does.
func (t *Tree[P]) findOrCreateRoot(bg *graph.Graph) int {
	if i := t.matchRoot(bg); i >= 0 {
		return i
	}
	t.roots = append(t.roots, &rootRecord[P]{id: len(t.roots), bg: bg})
	return len(t.roots) - 1
}

// clusterCfg assembles the clustering configuration shared by bootstrap,
// inline splits and deferred split evaluations.
func (t *Tree[P]) clusterCfg() cluster.Config {
	return cluster.Config{
		MaxIter:     t.cfg.EMMaxIter,
		Seed:        t.cfg.Seed,
		Distance:    t.cfg.ClusterDistance,
		Concurrency: t.cfg.Concurrency,
	}
}

// buildClusters bootstraps a root's cluster node from its first batch of
// items: EM clustering with the non-metric EGED, K by BIC unless fixed.
// root must be owned by the transaction.
func (t *Tree[P]) buildClusters(x *txn[P], root *rootRecord[P], items []Item[P]) error {
	seqs := make([]dist.Sequence, len(items))
	for i, it := range items {
		seqs[i] = it.Seq
	}
	ccfg := t.clusterCfg()
	var res *cluster.Result
	var err error
	switch {
	case t.cfg.NumClusters > 0:
		ccfg.K = min(t.cfg.NumClusters, len(items))
		res, err = cluster.EM(seqs, ccfg)
	default:
		var scan *cluster.KScan
		scan, err = cluster.OptimalK(seqs, 1, min(t.cfg.MaxClusters, len(items)), ccfg)
		if err == nil {
			res = scan.Results[scan.BestK-1]
		}
	}
	if err != nil {
		return fmt.Errorf("index: clustering segment: %w", err)
	}
	for k := 0; k < res.K; k++ {
		members := res.Members(k)
		if len(members) == 0 {
			continue
		}
		cl := &clusterRecord[P]{id: t.nextCl, centroid: res.Centroids[k]}
		t.nextCl++
		x.own(cl)
		recs := make([]leafRecord[P], len(members))
		for mi, j := range members {
			recs[mi] = t.newLeafRecord(cl.centroid, items[j].Seq, items[j].Payload)
		}
		cl.leaf = sortedLeaf(recs)
		root.clusters = append(root.clusters, cl)
		t.size += len(members)
	}
	// Respect the occupancy rule immediately. The range snapshots the
	// slice header, so clusters appended by adopted splits are not
	// re-examined — the original behavior.
	for _, cl := range root.clusters {
		t.maybeSplit(x, root, cl)
	}
	return nil
}

// insertIntoRoot routes one item to the most similar centroid (non-metric
// EGED, Algorithm 3's descent) and inserts it into that leaf by key. root
// must be owned by the transaction.
func (t *Tree[P]) insertIntoRoot(x *txn[P], root *rootRecord[P], it Item[P]) error {
	ci := argminCluster(root.clusters, it.Seq, t.cfg.ClusterDistance, t.cfg.Concurrency)
	if ci < 0 {
		return fmt.Errorf("index: root %d has no clusters", root.id)
	}
	cl := x.cluster(root, ci)
	cl.insertSorted(t.newLeafRecord(cl.centroid, it.Seq, it.Payload))
	t.size++
	t.maybeSplit(x, root, cl)
	return nil
}

// argminCluster evaluates the distance from seq to every centroid across
// the worker pool and returns the index of the first minimum — the same
// winner the sequential strict-less-than scan picks, because the reduction
// runs in slice order after the values land.
func argminCluster[P any](cls []*clusterRecord[P], seq dist.Sequence, m dist.Metric, workers int) int {
	best, err := argminClusterCtx(context.Background(), cls, seq, m, workers)
	must(err)
	return best
}

// argminClusterCtx is argminCluster with cancellation: a done ctx stops
// the pool from claiming further centroid evaluations and surfaces
// ctx.Err().
func argminClusterCtx[P any](ctx context.Context, cls []*clusterRecord[P], seq dist.Sequence, m dist.Metric, workers int) (int, error) {
	if len(cls) == 0 {
		return -1, nil
	}
	ds, err := parallel.MapCtx(ctx, workers, len(cls), func(i int) (float64, error) {
		return m(seq, cls[i].centroid), nil
	})
	if err != nil {
		return -1, err
	}
	best, bestD := -1, math.Inf(1)
	for i, d := range ds {
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best, nil
}

// must re-panics pool errors from task functions that never return errors
// themselves: the only possible failure is a recovered worker panic, which
// the sequential code path would have let escape.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func (c *clusterRecord[P]) insertSorted(rec leafRecord[P]) {
	i := sort.Search(len(c.leaf), func(i int) bool { return c.leaf[i].key >= rec.key })
	c.leaf = append(c.leaf, leafRecord[P]{})
	copy(c.leaf[i+1:], c.leaf[i:])
	c.leaf[i] = rec
}

// sortedLeaf orders a batch of records exactly as sequential insertSorted
// arrivals would have left them — ascending key, and among equal keys the
// later arrival first (insertSorted places a new record before existing
// equal keys) — in O(n log n) instead of the O(n²) shifting of one
// insertSorted call per record. recs must be in arrival order; the slice
// is consumed.
func sortedLeaf[P any](recs []leafRecord[P]) []leafRecord[P] {
	ord := make([]int, len(recs))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		ra, rb := ord[a], ord[b]
		if recs[ra].key != recs[rb].key {
			return recs[ra].key < recs[rb].key
		}
		return ra > rb
	})
	out := make([]leafRecord[P], len(recs))
	for i, j := range ord {
		out[i] = recs[j]
	}
	return out
}

// mergeLeaf merges a sorted batch (sortedLeaf order) into a sorted leaf,
// placing a newcomer before any existing record of equal key — the same
// final order one insertSorted call per newcomer would produce, in one
// linear pass.
func mergeLeaf[P any](old, recs []leafRecord[P]) []leafRecord[P] {
	merged := make([]leafRecord[P], 0, len(old)+len(recs))
	i, j := 0, 0
	for i < len(old) && j < len(recs) {
		if recs[j].key <= old[i].key {
			merged = append(merged, recs[j])
			j++
		} else {
			merged = append(merged, old[i])
			i++
		}
	}
	merged = append(merged, old[i:]...)
	return append(merged, recs[j:]...)
}

// maybeSplit applies Section 5.3: when a leaf exceeds MaxLeafEntries, EM
// with K = 2 is fitted to its members and adopted if it improves BIC over
// the single-cluster model. A declined verdict is remembered at the
// current leaf size (splitChecked), so re-checks at an unchanged
// membership skip the refits. With deferSplit set, the transaction records
// the cluster for the asynchronous evaluator instead of fitting inline.
// cl must be owned by the transaction.
func (t *Tree[P]) maybeSplit(x *txn[P], root *rootRecord[P], cl *clusterRecord[P]) {
	if len(cl.leaf) <= t.cfg.MaxLeafEntries || len(cl.leaf) == cl.splitChecked {
		return
	}
	if x.deferSplit {
		x.splitCands = append(x.splitCands, splitCand{rootIdx: x.rootIdx, clusterID: cl.id})
		return
	}
	seqs := make([]dist.Sequence, len(cl.leaf))
	for i, rec := range cl.leaf {
		seqs[i] = rec.seq
	}
	dec, err := cluster.SplitEval(seqs, t.clusterCfg())
	splitEvals.Inc()
	if err != nil {
		return // splitting is an optimization; never fail an insert over it
	}
	if !dec.Adopt || !t.applySplit(root, cl, dec.Two) {
		cl.splitChecked = len(cl.leaf)
		return
	}
	splitsInline.Inc()
}

// applySplit installs an adopted two-component fit: cl keeps component 0
// (re-centroided, members re-keyed), a new cluster record takes component
// 1, appended to the root. It reports false — leaving the tree unchanged —
// when either membership is empty. root and cl must be owned by the
// transaction.
func (t *Tree[P]) applySplit(root *rootRecord[P], cl *clusterRecord[P], two *cluster.Result) bool {
	mem0, mem1 := two.Members(0), two.Members(1)
	if len(mem0) == 0 || len(mem1) == 0 {
		return false
	}
	records := cl.leaf
	newCl := &clusterRecord[P]{id: t.nextCl, centroid: two.Centroids[1]}
	t.nextCl++
	cl.centroid = two.Centroids[0]
	cl.splitChecked = 0
	rekey := func(members []int, centroid dist.Sequence) []leafRecord[P] {
		recs := make([]leafRecord[P], len(members))
		for mi, j := range members {
			// Re-key against the new centroid, but keep the record's
			// summary: it depends only on the sequence, not the cluster.
			rec := records[j]
			rec.key = t.cfg.Metric(rec.seq, centroid)
			recs[mi] = rec
		}
		return sortedLeaf(recs)
	}
	cl.leaf = rekey(mem0, cl.centroid)
	newCl.leaf = rekey(mem1, newCl.centroid)
	root.clusters = append(root.clusters, newCl)
	return true
}

// MemoryBytes evaluates Equation 10: Σ size(OG_mem) + Σ size(OG_clus) +
// size(BG) — counting each member sequence, each centroid sequence and
// each background graph once.
func (t *Tree[P]) MemoryBytes() int {
	total := 0
	for _, r := range t.roots {
		if r.bg != nil {
			total += r.bg.MemoryBytes()
		}
		for _, cl := range r.clusters {
			total += seqBytes(cl.centroid)
			for _, rec := range cl.leaf {
				total += seqBytes(rec.seq) + 8 + 8 // key + ptr
			}
		}
	}
	return total
}

func seqBytes(s dist.Sequence) int {
	if len(s) == 0 {
		return 0
	}
	return len(s) * s.Dim() * 8
}

// Items returns every indexed item (sequence and payload), ordered by
// root, cluster and key. The slices share storage with the tree; callers
// must not mutate the sequences.
func (t *Tree[P]) Items() []Item[P] {
	out := make([]Item[P], 0, t.size)
	for _, r := range t.roots {
		for _, cl := range r.clusters {
			for _, rec := range cl.leaf {
				out = append(out, Item[P]{Seq: rec.seq, Payload: rec.payload})
			}
		}
	}
	return out
}

// CheckInvariants verifies leaf key order, key correctness and that every
// record's column block mirrors its sequence bit-for-bit. Intended for
// tests.
func (t *Tree[P]) CheckInvariants() error {
	for _, r := range t.roots {
		for _, cl := range r.clusters {
			for i, rec := range cl.leaf {
				if i > 0 && rec.key < cl.leaf[i-1].key {
					return fmt.Errorf("index: cluster %d keys out of order at %d", cl.id, i)
				}
				if want := t.cfg.Metric(rec.seq, cl.centroid); math.Abs(want-rec.key) > 1e-9 {
					return fmt.Errorf("index: cluster %d record %d key %v != distance %v", cl.id, i, rec.key, want)
				}
				if rec.col.Len() != len(rec.seq) {
					return fmt.Errorf("index: cluster %d record %d column block has %d rows, sequence %d", cl.id, i, rec.col.Len(), len(rec.seq))
				}
				for si, v := range rec.seq {
					row := rec.col.Row(si)
					for k := range v {
						if math.Float64bits(v[k]) != math.Float64bits(row[k]) {
							return fmt.Errorf("index: cluster %d record %d sample %d diverges from its column block", cl.id, i, si)
						}
					}
				}
			}
		}
	}
	return nil
}
