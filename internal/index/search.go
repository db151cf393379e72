package index

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

	"strgindex/internal/dist"
	"strgindex/internal/graph"
	"strgindex/internal/parallel"
)

// SearchStats is one search's filter-and-refine accounting: how many
// candidates each stage of the distance cascade disposed of. Every record
// that enters the cascade leaves it through exactly one stage, so
//
//	Records == LBQuickPruned + LBEnvelopePruned + DPEvaluated + DPAbandoned
//
// Counts are deterministic at Concurrency 1; at higher worker counts the
// same records are pruned, but snapshot thresholds inside a batch may
// shift a few candidates between stages (never into or out of the result
// set).
type SearchStats struct {
	// CandidateLeaves is the number of leaves considered; ScannedLeaves
	// the number actually scanned (the rest were pruned by the cluster
	// lower bound).
	CandidateLeaves int
	ScannedLeaves   int
	// Records is the number of leaf records that survived key-window
	// pruning and entered the distance cascade.
	Records int
	// LBQuickPruned and LBEnvelopePruned count records rejected by the
	// O(1) and O(m) lower bounds respectively.
	LBQuickPruned    int
	LBEnvelopePruned int
	// DPEvaluated counts full DP evaluations; DPAbandoned counts DP
	// kernels cut short by the early-abandoning threshold.
	DPEvaluated int
	DPAbandoned int
}

// add accumulates another (per-leaf or per-cluster) stats block.
func (s *SearchStats) add(o SearchStats) {
	s.Records += o.Records
	s.LBQuickPruned += o.LBQuickPruned
	s.LBEnvelopePruned += o.LBEnvelopePruned
	s.DPEvaluated += o.DPEvaluated
	s.DPAbandoned += o.DPAbandoned
}

// queryState is the per-search precomputation shared by every leaf scan:
// the query's cascade summary, plus handles resolved once instead of per
// record.
type queryState struct {
	query dist.Sequence
	qs    dist.Summary
	casc  dist.Cascade
	// bq is the prepared batched query (immutable, shared by all leaf scans
	// — each scan derives its own mutable arena); nil when the cascade has
	// no batched kernel (a custom metric).
	bq *dist.BatchQuery
}

func (t *Tree[P]) newQueryState(query dist.Sequence) *queryState {
	q := &queryState{query: query, casc: t.cfg.Cascade}
	q.qs = q.casc.Summarize(query)
	if bc, ok := q.casc.(dist.BatchCascade); ok {
		q.bq = bc.BatchQuery(query)
	}
	return q
}

// arena takes the scan's batched-DP scratch from the process-wide pool
// (nil when the cascade has no batched kernel). Scans may run
// concurrently on the worker pool, so the mutable scratch cannot live in
// queryState; the pool hands a sequential scan the same arena leaf after
// leaf and gives each concurrent worker its own.
func (q *queryState) arena() *dist.Batch {
	if q.bq == nil {
		return nil
	}
	return q.bq.Acquire()
}

// KNN implements Algorithm 3: match the query background against the root
// records with SimGraph (skipped when bg is nil — "when a query does not
// consider a background"), descend to the most similar centroid OG under
// the clustering distance, then k-NN the chosen leaf using the metric key
// for pruning. Like the paper's algorithm it searches a single cluster, so
// results are approximate when the true neighbors straddle a cluster
// boundary — that is exactly the accuracy/speed trade-off Figure 7
// measures. Use KNNExact for exact results.
//
// The centroid descent evaluates its distances across the configured
// worker pool; results are identical at every Concurrency setting.
func (t *Tree[P]) KNN(bg *graph.Graph, query dist.Sequence, k int) []Result[P] {
	res, _, err := t.KNNStatsCtx(context.Background(), bg, query, k)
	must(err)
	return res
}

// KNNStatsCtx is KNN with cancellation and the search's cascade
// accounting: once ctx is done the worker pool stops claiming centroid
// evaluations, in-flight ones drain, and ctx.Err() is returned. A
// cancelled search returns no partial results.
func (t *Tree[P]) KNNStatsCtx(ctx context.Context, bg *graph.Graph, query dist.Sequence, k int) ([]Result[P], SearchStats, error) {
	var st SearchStats
	if k <= 0 || t.size == 0 {
		return nil, st, nil
	}
	searchesKNN.Inc()
	cls := t.candidateClusters(bg)
	nodeVisits.Add(int64(len(cls)))
	// Step 3: most similar centroid across the candidate roots.
	best, err := argminClusterCtx(ctx, cls, query, t.cfg.ClusterDistance, t.cfg.Concurrency)
	if err != nil {
		return nil, st, err
	}
	if best < 0 {
		return nil, st, nil
	}
	cl := cls[best]
	h := newResultHeap[P](k, len(cl.leaf))
	q := t.newQueryState(query)
	t.searchLeafWithCentroidDist(cl, q, t.cfg.Metric(query, cl.centroid), 0, h, math.Inf(1), &st)
	st.CandidateLeaves, st.ScannedLeaves = len(cls), 1
	observeSearch(len(cls), 1)
	observeCascade(st)
	return h.sorted(), st, nil
}

// KNNExact searches every cluster best-first with metric lower bounds, so
// results are exact under the key metric. It is the repository's extension
// beyond Algorithm 3 (the paper trades accuracy for speed); the experiment
// harness uses it to separate index quality from search policy.
//
// Leaves are scanned in batches of one per worker: each leaf in a batch
// fills a private heap concurrently, and the batches merge into the global
// heap between rounds. Because every result carries a canonical ordinal
// (leaf rank in bound order, then ring-expansion step within the leaf) and
// the heap orders by (distance, ordinal), the returned slice is
// byte-identical to the Concurrency == 1 scan — parallelism can only scan
// leaves the sequential best-first loop would have pruned, and records
// from those leaves are provably too far to enter the heap.
func (t *Tree[P]) KNNExact(bg *graph.Graph, query dist.Sequence, k int) []Result[P] {
	res, _, err := t.KNNExactStatsCtx(context.Background(), bg, query, k)
	must(err)
	return res
}

// KNNExactStatsCtx is KNNExact with cancellation and the search's cascade
// accounting: cancellation is observed between leaf batches and at
// work-item claim time inside a batch, so a disconnected client stops
// burning the worker pool after at most the in-flight leaf scans. A
// cancelled search returns ctx.Err() and no partial results.
func (t *Tree[P]) KNNExactStatsCtx(ctx context.Context, bg *graph.Graph, query dist.Sequence, k int) ([]Result[P], SearchStats, error) {
	var st SearchStats
	if k <= 0 || t.size == 0 {
		return nil, st, nil
	}
	searchesKNNExact.Inc()
	cls := t.candidateClusters(bg)
	nodeVisits.Add(int64(len(cls)))
	// The query-to-centroid distance doubles as the leaf's search key, so
	// it is computed once here and reused by the scan (the sequential
	// version used to evaluate it twice per scanned leaf).
	keyQs, err := parallel.MapCtx(ctx, t.cfg.Concurrency, len(cls), func(i int) (float64, error) {
		return t.cfg.Metric(query, cls[i].centroid), nil
	})
	if err != nil {
		return nil, st, err
	}
	type cand struct {
		cl    *clusterRecord[P]
		keyQ  float64
		bound float64
	}
	cands := make([]cand, len(cls))
	for i, cl := range cls {
		// Every member m satisfies d(m, centroid) = key <= maxKey, so
		// d(query, m) >= d(query, centroid) - maxKey.
		cands[i] = cand{cl, keyQs[i], math.Max(0, keyQs[i]-cl.maxKey())}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].bound < cands[j].bound })

	q := t.newQueryState(query)
	h := newResultHeap[P](k, t.size)
	batch := parallel.Workers(t.cfg.Concurrency)
	var scanned atomic.Int64
	type leafScan struct {
		h  *resultHeap[P]
		st SearchStats
	}
	for start := 0; start < len(cands); start += batch {
		if h.full() && cands[start].bound > h.worst() {
			break
		}
		end := min(start+batch, len(cands))
		// Snapshot the global worst: h is not mutated during the batch, so
		// workers can prune against it without synchronizing. Once the
		// global heap is full its worst only decreases, so any record a
		// scan drops against this snapshot would also lose the merge.
		worst, pruning := h.worst(), h.full()
		bound := math.Inf(1)
		if pruning {
			bound = worst
		}
		locals, err := parallel.MapCtx(ctx, t.cfg.Concurrency, end-start, func(i int) (*leafScan, error) {
			c := cands[start+i]
			if pruning && c.bound > worst {
				return nil, nil
			}
			scanned.Add(1)
			ls := &leafScan{h: newResultHeap[P](k, len(c.cl.leaf))}
			t.searchLeafWithCentroidDist(c.cl, q, c.keyQ, start+i, ls.h, bound, &ls.st)
			return ls, nil
		})
		if err != nil {
			return nil, st, err
		}
		for _, ls := range locals {
			if ls == nil {
				continue
			}
			for _, it := range ls.h.items {
				h.offer(it.res, it.ord)
			}
			st.add(ls.st)
		}
	}
	st.CandidateLeaves, st.ScannedLeaves = len(cands), int(scanned.Load())
	observeSearch(st.CandidateLeaves, st.ScannedLeaves)
	observeCascade(st)
	return h.sorted(), st, nil
}

// Range returns every indexed OG within radius of the query under the key
// metric, searching all clusters with metric pruning (exact). Clusters
// scan concurrently; the per-cluster hit lists concatenate in cluster
// order and sort stably, so the output is identical at every Concurrency
// setting.
func (t *Tree[P]) Range(bg *graph.Graph, query dist.Sequence, radius float64) []Result[P] {
	res, _, err := t.RangeStatsCtx(context.Background(), bg, query, radius)
	must(err)
	return res
}

// RangeStatsCtx is Range with cancellation and the search's cascade
// accounting: once ctx is done the pool stops claiming cluster scans,
// in-flight ones drain, and ctx.Err() is returned. The radius is a fixed
// refinement threshold, so every cascade stage prunes against it: a record
// whose lower bound exceeds the radius, or whose DP abandons above it,
// provably is not a hit.
func (t *Tree[P]) RangeStatsCtx(ctx context.Context, bg *graph.Graph, query dist.Sequence, radius float64) ([]Result[P], SearchStats, error) {
	var st SearchStats
	searchesRange.Inc()
	cls := t.candidateClusters(bg)
	nodeVisits.Add(int64(len(cls)))
	q := t.newQueryState(query)
	var scanned atomic.Int64
	type clusterScan struct {
		hits []Result[P]
		st   SearchStats
	}
	scans, err := parallel.MapCtx(ctx, t.cfg.Concurrency, len(cls), func(i int) (*clusterScan, error) {
		cl := cls[i]
		dc := t.cfg.Metric(query, cl.centroid)
		if dc-cl.maxKey() > radius {
			return nil, nil
		}
		scanned.Add(1)
		cs := &clusterScan{}
		arena := q.arena()
		defer arena.Release()
		// Key window: |key - dc| <= radius is necessary for a hit.
		lo := sort.Search(len(cl.leaf), func(i int) bool { return cl.leaf[i].key >= dc-radius })
		for i := lo; i < len(cl.leaf) && cl.leaf[i].key <= dc+radius; i++ {
			rec := &cl.leaf[i]
			if d, ok := refine(q, arena, rec, radius, &cs.st); ok && d <= radius {
				cs.hits = append(cs.hits, Result[P]{Payload: rec.payload, Distance: d})
			}
		}
		return cs, nil
	})
	if err != nil {
		return nil, st, err
	}
	var out []Result[P]
	for _, cs := range scans {
		if cs == nil {
			continue
		}
		out = append(out, cs.hits...)
		st.add(cs.st)
	}
	st.CandidateLeaves, st.ScannedLeaves = len(cls), int(scanned.Load())
	observeSearch(st.CandidateLeaves, st.ScannedLeaves)
	observeCascade(st)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out, st, nil
}

// candidateRoots applies Algorithm 3 step 2: the root matching the query
// background wins; a nil background (or no match above the threshold)
// widens the search to every root.
func (t *Tree[P]) candidateRoots(bg *graph.Graph) []*rootRecord[P] {
	if bg == nil {
		return t.roots
	}
	if i := t.matchRoot(bg); i >= 0 {
		return []*rootRecord[P]{t.roots[i]}
	}
	return t.roots
}

// candidateClusters flattens the candidate roots' cluster records in
// root-then-cluster order — the iteration order of the original nested
// loops, which the deterministic argmin and merge rely on.
func (t *Tree[P]) candidateClusters(bg *graph.Graph) []*clusterRecord[P] {
	var cls []*clusterRecord[P]
	for _, r := range t.candidateRoots(bg) {
		cls = append(cls, r.clusters...)
	}
	return cls
}

// searchLeafWithCentroidDist k-NNs one leaf through the distance cascade:
// expand outward from Key_q's position in the sorted keys, stopping each
// side when the reverse triangle inequality (|key - Key_q| <= d(query,
// member)) proves no closer member can remain, and running each surviving
// record through refine.
//
// bound is an external threshold that is valid for the whole scan (the
// batch-snapshot global worst in KNNExact; +Inf when there is none): the
// effective threshold is min(bound, local heap worst once full).
func (t *Tree[P]) searchLeafWithCentroidDist(cl *clusterRecord[P], q *queryState, keyQ float64, leafRank int, h *resultHeap[P], bound float64, st *SearchStats) {
	n := len(cl.leaf)
	if n == 0 {
		return
	}
	arena := q.arena()
	defer arena.Release()
	start := sort.Search(n, func(i int) bool { return cl.leaf[i].key >= keyQ })
	lo, hi := start-1, start
	// The expansion order depends only on the stored keys and Key_q —
	// never on the heap — so the step counter is a canonical within-leaf
	// ordinal: the same record gets the same ordinal whether the leaf is
	// scanned by the sequential loop or by a private heap in a worker.
	for step := 0; lo >= 0 || hi < n; step++ {
		// Expand the side whose key is closer to Key_q.
		var i int
		switch {
		case lo < 0:
			i = hi
			hi++
		case hi >= n:
			i = lo
			lo--
		case keyQ-cl.leaf[lo].key <= cl.leaf[hi].key-keyQ:
			i = lo
			lo--
		default:
			i = hi
			hi++
		}
		rec := &cl.leaf[i]
		thresh := bound
		if h.full() && h.worst() < thresh {
			thresh = h.worst()
		}
		gap := math.Abs(rec.key - keyQ)
		if gap > thresh {
			// Keys only diverge further on both sides once the nearer side
			// has been exhausted in order; this record's side is done.
			if i < start {
				lo = -1
			} else {
				hi = n
			}
			continue
		}
		if d, ok := refine(q, arena, rec, thresh, st); ok {
			h.offer(Result[P]{Payload: rec.payload, Distance: d}, uint64(leafRank)<<32|uint64(step))
		}
	}
}

// refine is the per-record distance cascade, cheapest stage first:
// LBQuick (O(1)) -> LBEnvelope (O(len(query))) -> early-abandoning DP. It
// books the stage that disposed of rec in st and reports ok with the exact
// distance only when the DP ran to completion.
//
// Every pruning comparison is strictly `>` against thresh, and every
// bound (including the DP's row minimum) is <= the true distance, so a
// record whose distance ties thresh is never pruned — the k-NN heap's
// (distance, ordinal) tie-break sees exactly the same contenders as an
// exhaustive scan, keeping results byte-identical with the cascade off.
//
// The DP is the batched columnar kernel when the scan has an arena, the
// per-pair kernel otherwise (a cascade without the BatchCascade
// extension); the two are bit-identical in value, abandon decision and
// eval/cell accounting.
func refine[P any](q *queryState, arena *dist.Batch, rec *leafRecord[P], thresh float64, st *SearchStats) (d float64, ok bool) {
	st.Records++
	if q.casc.LBQuick(q.query, rec.seq, q.qs, rec.sum) > thresh {
		st.LBQuickPruned++
		return 0, false
	}
	if q.casc.LBEnvelope(q.query, rec.sum) > thresh {
		st.LBEnvelopePruned++
		return 0, false
	}
	var abandoned bool
	if arena != nil {
		d, abandoned = arena.DistanceUB(rec.col, thresh)
	} else {
		d, abandoned = q.casc.DistanceUB(q.query, rec.seq, thresh)
	}
	if abandoned {
		st.DPAbandoned++
		return 0, false
	}
	st.DPEvaluated++
	return d, true
}

// heapItem pairs a result with its canonical scan ordinal. Ordering is
// lexicographic on (Distance, ord): the ordinal reproduces "first offered
// wins" among equal distances no matter which worker evaluated the record,
// making search results independent of scheduling.
type heapItem[P any] struct {
	res Result[P]
	ord uint64
}

func (a heapItem[P]) before(b heapItem[P]) bool {
	if a.res.Distance != b.res.Distance {
		return a.res.Distance < b.res.Distance
	}
	return a.ord < b.ord
}

// resultHeap keeps the k best results: a max-heap by (distance, ordinal).
type resultHeap[P any] struct {
	k     int
	items []heapItem[P]
}

// newResultHeap returns a heap for the k best of at most n offered
// results, sized up front (offer holds k+1 items for an instant) so a
// scan never regrows it.
func newResultHeap[P any](k, n int) *resultHeap[P] {
	return &resultHeap[P]{k: k, items: make([]heapItem[P], 0, min(k, n)+1)}
}

func (h *resultHeap[P]) full() bool { return len(h.items) >= h.k }

func (h *resultHeap[P]) worst() float64 {
	if len(h.items) == 0 {
		return math.Inf(1)
	}
	return h.items[0].res.Distance
}

func (h *resultHeap[P]) offer(r Result[P], ord uint64) {
	it := heapItem[P]{res: r, ord: ord}
	if h.full() && !it.before(h.items[0]) {
		return
	}
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[parent].before(h.items[i]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
	if len(h.items) > h.k {
		h.popTop()
	}
}

func (h *resultHeap[P]) popTop() heapItem[P] {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < last && h.items[largest].before(h.items[l]) {
			largest = l
		}
		if r < last && h.items[largest].before(h.items[r]) {
			largest = r
		}
		if largest == i {
			break
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
	return top
}

func (h *resultHeap[P]) sorted() []Result[P] {
	out := make([]Result[P], len(h.items))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h.popTop().res
	}
	return out
}
