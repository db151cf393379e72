// Package core exposes the system's high-level API: a VideoDB that ingests
// video segments through the full STRG pipeline (RAG construction, graph
// tracking, decomposition into Object Graphs and a Background Graph,
// EM clustering) into an STRG-Index, and answers declarative queries over
// object motion (Algorithm 3 and its exact, range, approximate and
// predicate relatives) through one entry point, QueryComposedCtx.
//
// This is the surface a downstream application uses; the papers' internals
// live in the substrate packages (rag, strg, dist, cluster, index).
package core

import (
	"context"
	"fmt"
	"time"

	"strgindex/internal/dist"
	"strgindex/internal/graph"
	"strgindex/internal/index"
	"strgindex/internal/parallel"
	"strgindex/internal/shot"
	"strgindex/internal/strg"
	"strgindex/internal/video"
)

// ClipRecord is the leaf payload: where the matched object graph lives.
type ClipRecord struct {
	Stream string
	Clip   video.ClipRef
	// Label is the OG's dominant ground-truth label when the source
	// provides one; retrieval never reads it.
	Label string
	// OGID numbers the OG within the database ingest order.
	OGID int
}

// Match is one similarity query hit.
type Match struct {
	Record   ClipRecord
	Distance float64
}

// Config assembles the pipeline configuration.
type Config struct {
	// STRG controls RAG construction, tracking and decomposition.
	STRG strg.Config
	// Index controls clustering and the STRG-Index tree.
	Index index.Config
	// Concurrency is the database-wide worker budget. A nonzero value
	// fills any zero STRG/Index Concurrency at Open and bounds the
	// segment-level pipeline of IngestStream. 0 means one worker per CPU;
	// 1 reproduces the fully sequential pipeline. Results are identical
	// at every setting.
	Concurrency int
	// Deprecated: ignored. Kept only because the bench/ module assigns it.
	DistCacheSize int
	// DisableTrajIndex turns off the trajectory R-tree maintained at
	// ingest. The declarative planner then always scans; answers are
	// unchanged (the R-tree only prunes candidates, never filters them).
	DisableTrajIndex bool
	// Approx enables the opt-in approximate similarity tier (see vec.go):
	// deterministic OG embeddings in an IVF index, probed for candidates
	// that the exact cascade reranks. Default paths are untouched.
	Approx ApproxConfig
}

// DefaultConfig is the configuration used by the examples and experiments.
func DefaultConfig() Config {
	return Config{STRG: strg.DefaultConfig()}
}

// Stats summarizes database contents and the size accounting of
// Section 5.4.
type Stats struct {
	Segments int
	OGs      int
	Roots    int
	Clusters int
	// Shards is the number of copy-on-write index partitions. Snapshot
	// versions are runtime state, not content — read them via
	// IndexSharded().Versions() or the shard metrics, not here, so that
	// two databases with identical contents report identical Stats.
	Shards int
	// STRGBytes is Equation 9 aggregated over segments: the decomposed
	// STRG with the background repeated per frame.
	STRGBytes int
	// RawSTRGBytes is the undecomposed STRG footprint (every frame's RAG).
	RawSTRGBytes int
	// IndexBytes is Equation 10: the STRG-Index footprint.
	IndexBytes int
}

// IngestStats reports one segment's ingest.
type IngestStats struct {
	Frames        int
	TemporalEdges int
	OGs           int
	BGNodes       int
}

// VideoDB is an indexed video database. Not safe for concurrent use.
type VideoDB struct {
	cfg       Config
	tree      *index.Sharded[ClipRecord]
	segments  int
	ogCount   int
	strgBytes int
	rawBytes  int
	// ogs retains the decomposed Object Graphs (aligned with their
	// ClipRecords) for predicate queries.
	ogs     []*strg.OG
	records []ClipRecord
	// blocks holds each retained OG's attribute sequence in columnar form
	// (aligned with ogs) — what the batched EGED_M kernel streams in the
	// rank stage, the approximate tier's rerank and standing-query
	// matching, none of which then rebuild og.Sequence() per evaluation.
	blocks []dist.Block
	// traj is the trajectory R-tree over the retained OGs (nil when
	// Config.DisableTrajIndex is set); see spatial.go.
	traj *trajIndex
	// vec is the approximate similarity tier (nil unless
	// Config.Approx.Enabled); see vec.go.
	vec *vecTier
	// streamSegs counts committed segments per stream — the feed layer's
	// read-your-writes reconciliation point (see delta.go).
	streamSegs map[string]int
	// onCommit, when set, runs at the top of every segment commit, before
	// any database state mutates — the write-ahead hook of the durability
	// layer (see durable.go). rec.Shard is already the index shard the
	// segment will land on (resolved before the commit, so the log can
	// record the route). An error aborts the commit.
	onCommit func(rec *commitRecord) error
	// onDelta, when set, runs at the end of every segment commit with the
	// commit's OG delta (see delta.go).
	onDelta func(CommitDelta)
}

// Open creates an empty database.
func Open(cfg Config) *VideoDB {
	if cfg.STRG.SimThreshold <= 0 {
		cfg.STRG = strg.DefaultConfig()
	}
	if cfg.Concurrency != 0 {
		if cfg.STRG.Concurrency == 0 {
			cfg.STRG.Concurrency = cfg.Concurrency
		}
		if cfg.Index.Concurrency == 0 {
			cfg.Index.Concurrency = cfg.Concurrency
		}
	}
	db := &VideoDB{cfg: cfg, streamSegs: make(map[string]int)}
	db.tree = index.NewSharded[ClipRecord](cfg.Index)
	if !cfg.DisableTrajIndex {
		db.traj = newTrajIndex()
	}
	if cfg.Approx.Enabled {
		db.vec = newVecTier(cfg.Approx)
	}
	return db
}

// commitRecord is one segment commit: the output of the build pipeline
// (the decomposed STRG of Section 2.3.3 — Object Graphs plus one Background
// Graph — and the size accounting of Section 5.4), which is everything a
// commit consumes. It is what buildSegment returns, what commitSegment
// indexes and — gob-encoded behind a record-kind byte (see durable.go) —
// what the write-ahead log stores and the primary streams to replicas, so
// crash replay and replica apply hand a decoded record straight back to
// commitSegment and never re-run RAG construction, tracking or
// decomposition. Raw frames are consumed once, by the build.
type commitRecord struct {
	Stream  string
	Segment string
	Frames  int
	// RawBytes and STRGBytes are the segment's share of Stats.RawSTRGBytes
	// (every frame's RAG) and Stats.STRGBytes (Equation 9).
	RawBytes  int
	STRGBytes int
	// HasBG and BG are the wire form of bg, filled by encodeRecord and
	// consumed by decodeRecord; HasBG distinguishes a nil background (a
	// bulk trajectory load) from an empty graph.
	HasBG bool
	BG    graph.Snapshot
	OGs   []*strg.OG
	// Shard records the index shard the commit routed to — diagnostic
	// (replay re-derives the route deterministically, so a recovery under
	// a different shard count still works).
	Shard int
	// SrcSeq/SrcOff are set only on a replica: the primary WAL position
	// immediately after this operation's record — the position replication
	// resumes from once this record is locally durable. Persisting the
	// resume point inside the record itself makes resume crash-safe with
	// no sidecar file: a torn local tail truncates the record AND its
	// position together, so the operation is re-fetched, never skipped or
	// doubled. Zero on a primary, where gob omits them.
	SrcSeq uint64
	SrcOff int64

	// bg is the background graph in memory: the built graph on a live
	// commit, graph.FromSnapshot(BG) on a decoded one. Background matching
	// cannot tell them apart (see graph's snapshot round-trip test).
	bg *graph.Graph
}

// buildSegment runs the pure pipeline stages (RAG construction, tracking,
// decomposition). It touches no database state, so independent segments
// can build concurrently. The temporal-edge count is returned beside the
// record: IngestStats reports it, no commit needs it.
func (db *VideoDB) buildSegment(stream string, seg *video.Segment) (*commitRecord, int, error) {
	s, err := strg.Build(seg, db.cfg.STRG)
	if err != nil {
		return nil, 0, fmt.Errorf("core: building STRG for %s: %w", seg.Name, err)
	}
	return db.recordOf(stream, s), s.NumTemporalEdges(), nil
}

// recordOf decomposes a built STRG into its commit record. It reads only
// the configuration, so it runs outside any lock.
func (db *VideoDB) recordOf(stream string, s *strg.STRG) *commitRecord {
	d := s.Decompose(db.cfg.STRG)
	return &commitRecord{
		Stream:    stream,
		Segment:   s.Segment.Name,
		Frames:    len(s.Frames),
		RawBytes:  s.MemoryBytes(),
		STRGBytes: d.STRGSizeBytes(),
		OGs:       d.OGs,
		bg:        d.BG,
	}
}

// IngestSegment runs the full pipeline on one segment and indexes its OGs.
func (db *VideoDB) IngestSegment(stream string, seg *video.Segment) (*IngestStats, error) {
	start := time.Now()
	rec, temporalEdges, err := db.buildSegment(stream, seg)
	if err != nil {
		return nil, err
	}
	if err := db.commitSegment(rec); err != nil {
		return nil, err
	}
	ingestSeconds.Observe(time.Since(start).Seconds())
	return &IngestStats{
		Frames:        rec.Frames,
		TemporalEdges: temporalEdges,
		OGs:           len(rec.OGs),
		BGNodes:       rec.bg.Order(),
	}, nil
}

// commitSegment indexes one commit record — the only function that does.
// OG IDs, tree mutation and the size accounting all depend on commit
// order, so commits stay sequential.
func (db *VideoDB) commitSegment(rec *commitRecord) error {
	// Resolve the shard before anything mutates: the route is pure, and
	// commits are serialized, so this is exactly where AddSegment lands.
	rec.Shard = db.tree.RouteShard(rec.bg)
	if db.onCommit != nil {
		if err := db.onCommit(rec); err != nil {
			return fmt.Errorf("core: write-ahead log for %s: %w", rec.Segment, err)
		}
	}
	items := make([]index.Item[ClipRecord], len(rec.OGs))
	for i, og := range rec.OGs {
		clip := og.Clip
		clip.Stream = rec.Stream
		items[i] = index.Item[ClipRecord]{
			Seq: og.Sequence(),
			Payload: ClipRecord{
				Stream: rec.Stream,
				Clip:   clip,
				Label:  og.Label,
				OGID:   db.ogCount + i,
			},
		}
	}
	if err := db.tree.AddSegment(rec.bg, items); err != nil {
		return fmt.Errorf("core: indexing %s: %w", rec.Segment, err)
	}
	blocks := db.retain(rec.OGs, items)
	db.segments++
	db.streamSegs[rec.Stream]++
	db.ogCount += len(rec.OGs)
	db.strgBytes += rec.STRGBytes
	db.rawBytes += rec.RawBytes
	ingestSegments.Inc()
	ingestOGs.Add(int64(len(rec.OGs)))
	if db.onDelta != nil {
		recs := make([]ClipRecord, len(items))
		for i := range items {
			recs[i] = items[i].Payload
		}
		db.onDelta(CommitDelta{
			Stream:   rec.Stream,
			Segment:  rec.Segment,
			Shard:    rec.Shard,
			Versions: db.tree.Versions(),
			Records:  recs,
			OGs:      rec.OGs,
			Blocks:   blocks,
		})
	}
	return nil
}

// retain appends one commit's OGs (and their clip records) to the retained
// set and feeds the per-OG side structures — columnar blocks, trajectory
// R-tree, approximate tier — in ingest-ordinal order. It returns the
// commit's blocks, aligned with ogs.
func (db *VideoDB) retain(ogs []*strg.OG, items []index.Item[ClipRecord]) []dist.Block {
	blocks := ogBlocks(ogs)
	for i, og := range ogs {
		if db.traj != nil {
			db.traj.insert(len(db.ogs), og)
		}
		if db.vec != nil {
			db.vec.insert(len(db.ogs), blocks[i], db.tree.Cascade())
		}
		db.ogs = append(db.ogs, og)
		db.records = append(db.records, items[i].Payload)
	}
	db.blocks = append(db.blocks, blocks...)
	return blocks
}

// ogBlocks flattens each OG's centroid trajectory — exactly the (x, y)
// rows og.Sequence() would build — into sub-blocks of one shared buffer.
func ogBlocks(ogs []*strg.OG) []dist.Block {
	total := 0
	for _, og := range ogs {
		total += 2 * len(og.Centroids)
	}
	buf := make([]float64, 0, total)
	out := make([]dist.Block, len(ogs))
	for i, og := range ogs {
		start := len(buf)
		for _, c := range og.Centroids {
			buf = append(buf, c.X, c.Y)
		}
		// The slice holds exactly len(Centroids) rows of 2, so BlockOf
		// cannot refuse it.
		out[i], _ = dist.BlockOf(buf[start:len(buf):len(buf)], len(og.Centroids), 2)
	}
	return out
}

// ranker prepares q for repeated key-metric evaluation against retained
// OGs by ordinal: the batched columnar kernel over the stored blocks when
// the cascade has one (one prepared query, one arena, nothing allocated
// per candidate), the cascade's per-pair kernel otherwise. Both are
// bit-identical to Cascade().DistanceUB(q, ogs[i].Sequence(), ub). The
// returned evaluator is for one goroutine.
func (db *VideoDB) ranker(q dist.Sequence) func(i int, ub float64) (float64, bool) {
	cas := db.tree.Cascade()
	if bc, ok := cas.(dist.BatchCascade); ok {
		arena, blocks := bc.BatchQuery(q).NewBatch(), db.blocks
		return func(i int, ub float64) (float64, bool) {
			return arena.DistanceUB(blocks[i], ub)
		}
	}
	return func(i int, ub float64) (float64, bool) {
		return cas.DistanceUB(q, db.blocks[i].Sequence(), ub)
	}
}

// IngestVideo parses a long recording into single-background shots
// (Section 1's "issue 1") and ingests each shot as its own segment. It
// returns the number of shots.
func (db *VideoDB) IngestVideo(stream string, seg *video.Segment, shotCfg shot.Config) (int, error) {
	shots := shot.Split(seg, shotCfg)
	for _, s := range shots {
		if _, err := db.IngestSegment(stream, s); err != nil {
			return 0, err
		}
	}
	return len(shots), nil
}

// IngestStream ingests every segment of a generated stream. The pure
// pipeline stages (RAG construction, tracking, decomposition) of all
// segments run across the worker pool; indexing then commits the built
// segments in stream order, so the resulting database is identical to a
// segment-by-segment sequential ingest.
func (db *VideoDB) IngestStream(s *video.Stream) error {
	built, err := parallel.Map(db.cfg.Concurrency, len(s.Segments), func(i int) (*commitRecord, error) {
		rec, _, err := db.buildSegment(s.Profile.Name, s.Segments[i])
		return rec, err
	})
	if err != nil {
		return fmt.Errorf("core: ingesting stream %s: %w", s.Profile.Name, err)
	}
	for _, rec := range built {
		if err := db.commitSegment(rec); err != nil {
			return err
		}
	}
	return nil
}

// QuerySegment extracts the query segment's OGs and background (Section
// 5.5: "From a query video segment q, we extract the background graph BG_q
// and object graphs OG_q") and returns the k nearest indexed OGs for each
// extracted query OG. It is the one query that carries a background graph,
// which the declarative DSL cannot express; everything else goes through
// QueryComposedCtx.
func (db *VideoDB) QuerySegment(seg *video.Segment, k int) ([][]Match, error) {
	s, err := strg.Build(seg, db.cfg.STRG)
	if err != nil {
		return nil, fmt.Errorf("core: building query STRG: %w", err)
	}
	d := s.Decompose(db.cfg.STRG)
	out := make([][]Match, len(d.OGs))
	for i, og := range d.OGs {
		if out[i], _, err = db.searchKNN(context.Background(), d.BG, og.Sequence(), k, false); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// searchKNN is the k-NN operator: Algorithm 3's single-cluster descent,
// or the exact all-cluster search. A done ctx stops the search's worker
// pool from claiming further distance evaluations, drains the in-flight
// ones, and returns ctx.Err() — so a disconnected HTTP client cancels its
// search instead of burning workers.
func (db *VideoDB) searchKNN(ctx context.Context, bg *graph.Graph, seq dist.Sequence, k int, exact bool) ([]Match, index.SearchStats, error) {
	start := time.Now()
	var rs []index.Result[ClipRecord]
	var st index.SearchStats
	var err error
	if exact {
		rs, st, err = db.tree.KNNExactStatsCtx(ctx, bg, seq, k)
	} else {
		rs, st, err = db.tree.KNNStatsCtx(ctx, bg, seq, k)
	}
	if err != nil {
		return nil, st, err
	}
	if exact {
		queryKNNExactSeconds.Observe(time.Since(start).Seconds())
	} else {
		queryKNNSeconds.Observe(time.Since(start).Seconds())
	}
	return toMatches(rs), st, nil
}

// searchRange is the range operator: every indexed OG within radius of
// the trajectory.
func (db *VideoDB) searchRange(ctx context.Context, seq dist.Sequence, radius float64) ([]Match, index.SearchStats, error) {
	start := time.Now()
	rs, st, err := db.tree.RangeStatsCtx(ctx, nil, seq, radius)
	if err != nil {
		return nil, st, err
	}
	queryRangeSeconds.Observe(time.Since(start).Seconds())
	return toMatches(rs), st, nil
}

// Stats returns the current database statistics.
func (db *VideoDB) Stats() Stats {
	return Stats{
		Segments:     db.segments,
		OGs:          db.tree.Len(),
		Roots:        db.tree.NumRoots(),
		Clusters:     db.tree.NumClusters(),
		Shards:       db.tree.NumShards(),
		STRGBytes:    db.strgBytes,
		RawSTRGBytes: db.rawBytes,
		IndexBytes:   db.tree.MemoryBytes(),
	}
}

// Index returns a read-only merged view of the STRG-Index for advanced
// use (experiments, invariant checks). The view is a consistent snapshot:
// later ingests do not appear in it. Callers must not mutate it.
func (db *VideoDB) Index() *index.Tree[ClipRecord] { return db.tree.View() }

// IndexSharded exposes the sharded index itself (concurrent-safe) for
// tooling that needs shard versions or quiescing.
func (db *VideoDB) IndexSharded() *index.Sharded[ClipRecord] { return db.tree }

// QuiesceIndex waits for any in-flight asynchronous split evaluations
// (a no-op unless Config.Index.AsyncSplit is set).
func (db *VideoDB) QuiesceIndex() { db.tree.Quiesce() }

func toMatches(rs []index.Result[ClipRecord]) []Match {
	out := make([]Match, len(rs))
	for i, r := range rs {
		out[i] = Match{Record: r.Payload, Distance: r.Distance}
	}
	return out
}
