package core

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"strgindex/internal/dist"
	"strgindex/internal/embed"
	"strgindex/internal/index"
	"strgindex/internal/obs"
	"strgindex/internal/strg"
)

// The approximate similarity tier: a deterministic 20-dim embedding per
// indexed Object Graph, organized in an IVF-flat vector index (see
// internal/embed). A query probes the nprobe nearest inverted lists,
// takes every member of every probed list as a candidate, and reranks the
// candidates with the exact EGED_M cascade — the same LBQuick /
// LBEnvelope / early-abandoning DP pipeline the tree search runs, with
// the same SearchStats accounting. Returned distances are therefore
// exact; only the candidate set is approximate. Probing every list
// degenerates to an exact scan, so recall is 1.0 by construction at
// nprobe >= NLists and monotone below it.
//
// The tier is strictly opt-in: it never changes the default query paths,
// and it is only consulted by a declarative query that says
// `"mode": "approx"`.

// ApproxConfig enables and parameterizes the approximate similarity tier.
type ApproxConfig struct {
	// Enabled builds the tier at Open: every ingested OG is embedded and
	// added to the IVF index. Off by default — the tier costs ~Dim
	// float32s per OG plus the cached rerank summaries.
	Enabled bool
	// NLists is the number of IVF inverted lists (coarse k-means
	// centroids). Zero means the embed package default (64). Scale with
	// the corpus: ~sqrt(N) to a few multiples of it.
	NLists int
	// NProbe is the default probe count for queries that do not specify
	// one. Zero means ceil(sqrt(NLists)).
	NProbe int
	// TrainSize is the number of vectors buffered before the one-shot
	// k-means training. Zero means 64·NLists. Until trained, the index
	// is a single flat list and probing it is exact.
	TrainSize int
	// KMeansIters and TrainAttempts tune the one-shot training (zero
	// means the embed defaults: 6 Lloyd iterations, best of 3 seedings).
	KMeansIters   int
	TrainAttempts int
	// Seed drives the k-means++ seeding; the same seed and ingest order
	// always produce the same index.
	Seed int64
}

// ErrApproxDisabled is returned (wrapped) by a mode "approx" query when
// the database was opened without Config.Approx.Enabled. The
// HTTP layer maps it to a 400 with a stable error code, not a 500: asking
// for a tier that is switched off is a client error.
var ErrApproxDisabled = errors.New("core: approximate similarity tier disabled (set Config.Approx.Enabled)")

// vecTier is the per-database state of the approximate tier: the IVF
// index over the OG embeddings plus per-ordinal caches of what the exact
// rerank's bound tiers need. seqs are views into the database's stored
// blocks (one copy of the data, two access paths); the cascade summary is
// pure precomputation.
type vecTier struct {
	ivf  *embed.IVF
	seqs []dist.Sequence
	sums []dist.Summary
	// mirror[l] carries list l's members' summaries and end elements in
	// the IVF's member order, pendMirror the untrained flat buffer's. The
	// rerank's admissible quick bound reads these flat arrays instead of
	// chasing seqs[ord] per candidate — list members are scattered across
	// the ordinal space, and the pointer chase dominated rerank cost.
	mirror     [][]lbRec
	pendMirror []lbRec
}

// lbRec is one candidate's compact lower-bound state (dist.CompactLBer).
type lbRec struct {
	sum         dist.Summary
	first, last dist.Vec
}

func makeLBRec(seq dist.Sequence, sum dist.Summary) lbRec {
	r := lbRec{sum: sum}
	if len(seq) > 0 {
		r.first, r.last = seq[0], seq[len(seq)-1]
	}
	return r
}

func newVecTier(cfg ApproxConfig) *vecTier {
	return &vecTier{ivf: embed.NewIVF(embed.Config{
		NLists:        cfg.NLists,
		TrainSize:     cfg.TrainSize,
		KMeansIters:   cfg.KMeansIters,
		TrainAttempts: cfg.TrainAttempts,
		Seed:          cfg.Seed,
	})}
}

// insert embeds one OG under its ingest ordinal. Embed is a pure function
// of the attribute sequence, so the tier is identical across worker
// counts and rebuilds.
func (vt *vecTier) insert(id int, blk dist.Block, cas dist.Cascade) {
	seq := blk.Sequence()
	sum := cas.Summarize(seq)
	vt.seqs = append(vt.seqs, seq)
	vt.sums = append(vt.sums, sum)
	list, retrained := vt.ivf.Add(int32(id), embed.Embed(seq))
	switch {
	case retrained:
		vt.rebuildMirror()
	case list < 0:
		vt.pendMirror = append(vt.pendMirror, makeLBRec(seq, sum))
	default:
		vt.mirror[list] = append(vt.mirror[list], makeLBRec(seq, sum))
	}
}

// rebuildMirror re-derives the per-list compact LB arrays from the IVF's
// current member order — after training redistributes the flat buffer,
// or after a snapshot load.
func (vt *vecTier) rebuildMirror() {
	vt.pendMirror = nil
	vt.mirror = make([][]lbRec, vt.ivf.NLists())
	vt.ivf.VisitLists(func(list int, ids []int32) {
		recs := make([]lbRec, len(ids))
		for i, id := range ids {
			ord := int(id)
			recs[i] = makeLBRec(vt.seqs[ord], vt.sums[ord])
		}
		if list < 0 {
			vt.pendMirror = recs
			return
		}
		vt.mirror[list] = recs
	})
}

// ApproxInfo reports what one approximate query did, alongside the exact
// SearchStats of its rerank.
type ApproxInfo struct {
	// NProbe is the effective probe count (after defaulting and clamping
	// to Lists); Probed is the number of lists actually visited (fewer
	// than NProbe only when the index holds fewer lists).
	NProbe int
	Lists  int
	Probed int
	// Candidates is the number of OGs the probed lists yielded — each
	// entered the exact rerank cascade (== SearchStats.Records).
	Candidates int
	// RecallProxy estimates convergence without ground truth: the
	// fraction of the final answers NOT contributed by the last probed
	// list (1 when every list was probed — provably exact). A low value
	// means the frontier was still moving when probing stopped; raise
	// nprobe.
	RecallProxy float64
}

// defaultNProbe resolves the probe count for queries that do not name one.
func (db *VideoDB) defaultNProbe() int {
	if db.cfg.Approx.NProbe > 0 {
		return db.cfg.Approx.NProbe
	}
	return int(math.Ceil(math.Sqrt(float64(db.vec.ivf.NLists()))))
}

// ApproxLists returns the tier's inverted-list count and default probe
// count (0, 0 when the tier is disabled). The planner's cost model reads
// these through the query.ApproxSource interface.
func (db *VideoDB) ApproxLists() (nlists, defaultNProbe int) {
	if db.vec == nil {
		return 0, 0
	}
	return db.vec.ivf.NLists(), db.defaultNProbe()
}

// searchApprox is the approximate operator: embed the query, probe the
// nprobe nearest IVF lists (the planner-resolved count, in [1, NLists]),
// rerank every candidate with the exact EGED_M cascade. Distances in the
// result are exact; results are ordered by (distance, OGID). The returned
// SearchStats follow the tree-search invariant (see index.SearchStats) with
// CandidateLeaves = total lists and ScannedLeaves = lists probed. The tier
// must be enabled, and — unlike the index operators — it reads state that
// ingest appends to in place, so a concurrent caller holds the read lock.
func (db *VideoDB) searchApprox(ctx context.Context, seq dist.Sequence, k, nprobe int) ([]Match, index.SearchStats, *ApproxInfo, error) {
	var st index.SearchStats
	start := time.Now()
	vt := db.vec
	info := &ApproxInfo{Lists: vt.ivf.NLists(), NProbe: nprobe}
	st.CandidateLeaves = info.Lists
	if vt.ivf.Len() == 0 {
		info.RecallProxy = 1
		return nil, st, info, nil
	}

	cas := db.tree.Cascade()
	qsum := cas.Summarize(seq)
	qv := embed.Embed(seq)

	// best holds the running top-k ordered by (distance, OGID) — the
	// deterministic tie-break the contract tests pin down.
	type hit struct {
		ord  int
		d    float64
		rank int // probe rank of the contributing list (recall proxy)
	}
	best := make([]hit, 0, min(k, vt.ivf.Len())) // k is the client's; the corpus bounds it
	push := func(h hit) {
		i := sort.Search(len(best), func(i int) bool {
			if best[i].d != h.d {
				return best[i].d > h.d
			}
			return best[i].ord > h.ord
		})
		if i == k {
			return
		}
		best = append(best, hit{})
		copy(best[i+1:], best[i:])
		best[i] = h
		if len(best) > k {
			best = best[:k]
		}
	}

	// The quick bound reads the per-list compact mirror (sequential
	// memory) when the cascade supports it; prune decisions are
	// bit-identical to the seqs/sums path either way.
	compact, hasCompact := cas.(dist.CompactLBer)

	distanceUB := db.ranker(seq)

	rerankStart := time.Now()
	var ctxErr error
	rank := 0
	vt.ivf.Probe(qv, nprobe, func(list int, ids []int32) {
		if ctxErr != nil {
			return
		}
		recs := vt.pendMirror
		if list >= 0 {
			recs = vt.mirror[list]
		}
		for i, id := range ids {
			if st.Records&0xff == 0 {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return
				}
			}
			st.Records++
			ord := int(id)
			ub := math.Inf(1)
			if len(best) == k {
				ub = best[k-1].d
				if hasCompact {
					r := &recs[i]
					if compact.LBQuickCompact(seq, qsum, r.first, r.last, r.sum) > ub {
						st.LBQuickPruned++
						continue
					}
					if cas.LBEnvelope(seq, r.sum) > ub {
						st.LBEnvelopePruned++
						continue
					}
				} else {
					if cas.LBQuick(seq, vt.seqs[ord], qsum, vt.sums[ord]) > ub {
						st.LBQuickPruned++
						continue
					}
					if cas.LBEnvelope(seq, vt.sums[ord]) > ub {
						st.LBEnvelopePruned++
						continue
					}
				}
			}
			d, abandoned := distanceUB(ord, ub)
			if abandoned {
				st.DPAbandoned++
				continue
			}
			st.DPEvaluated++
			push(hit{ord: ord, d: d, rank: rank})
		}
		rank++
	})
	if ctxErr != nil {
		return nil, st, nil, ctxErr
	}
	st.ScannedLeaves = rank
	info.Probed = rank
	info.Candidates = st.Records

	ms := make([]Match, len(best))
	fromLast := 0
	for i, h := range best {
		ms[i] = Match{Record: db.records[h.ord], Distance: h.d}
		if h.rank == rank-1 {
			fromLast++
		}
	}
	info.RecallProxy = 1
	if rank < info.Lists && len(best) > 0 {
		info.RecallProxy = 1 - float64(fromLast)/float64(len(best))
	}

	approxQueries.Inc()
	approxProbedLists.Add(int64(rank))
	approxCandidates.Add(int64(st.Records))
	approxRerankSeconds.Observe(time.Since(rerankStart).Seconds())
	approxRecallProxy.Observe(info.RecallProxy)
	queryApproxSeconds.Observe(time.Since(start).Seconds())
	return ms, st, info, nil
}

// IngestTrajectories bulk-loads pre-decomposed Object Graphs under one
// stream name, bypassing the video pipeline (RAG construction, tracking,
// decomposition) — the load path of the million-OG experiment grid, fed
// by synth.AsOG. One call commits as one segment on the root a nil
// background resolves to; large corpora should arrive in batches of a few
// tens of thousands so the copy-on-write commit granularity stays
// reasonable. The commit is a record with no background graph through the
// same commitSegment a built segment takes, so on a durable database it is
// write-ahead logged and replayed like any other.
func (db *VideoDB) IngestTrajectories(stream string, ogs []*strg.OG) error {
	if len(ogs) == 0 {
		return nil
	}
	return db.commitSegment(&commitRecord{Stream: stream, Segment: "trajectories", OGs: ogs})
}

// Approximate-tier instrumentation.
//
//	strg_query_seconds{kind="knn_approx"}  end-to-end approximate query time
//	strg_approx_queries_total              approximate queries answered
//	strg_approx_probed_lists_total         IVF lists visited
//	strg_approx_candidates_total           candidates reranked by the cascade
//	strg_approx_rerank_seconds             probe + exact rerank duration
//	strg_approx_recall_proxy               per-query convergence proxy
var (
	queryApproxSeconds = obs.Default.Histogram("strg_query_seconds",
		"database query duration in seconds, by kind", obs.Labels{"kind": "knn_approx"}, nil)
	approxQueries = obs.Default.Counter("strg_approx_queries_total",
		"approximate similarity queries answered", nil)
	approxProbedLists = obs.Default.Counter("strg_approx_probed_lists_total",
		"IVF inverted lists visited by approximate queries", nil)
	approxCandidates = obs.Default.Counter("strg_approx_candidates_total",
		"candidate OGs reranked by the exact cascade", nil)
	approxRerankSeconds = obs.Default.Histogram("strg_approx_rerank_seconds",
		"IVF probe plus exact rerank duration in seconds", nil, nil)
	approxRecallProxy = obs.Default.Histogram("strg_approx_recall_proxy",
		"fraction of final answers not contributed by the last probed list",
		nil, []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99})
)
