// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus micro-benchmarks of the hot operations underneath them.
// The experiment-level benchmarks use reduced scales so `go test -bench=.`
// completes in minutes; `cmd/strg-bench -scale full` runs the paper-sized
// versions.
package strgindex

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"strgindex/internal/cluster"
	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/experiments"
	"strgindex/internal/feed"
	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/index"
	"strgindex/internal/mtree"
	"strgindex/internal/obs"
	"strgindex/internal/query"
	"strgindex/internal/rtree"
	"strgindex/internal/shot"
	"strgindex/internal/strg"
	"strgindex/internal/synth"
	"strgindex/internal/video"
)

// benchScale is the reduced experiment scale used by the table/figure
// benchmarks.
func benchScale() experiments.Scale {
	return experiments.Scale{
		StreamDivisor:  40,
		Fig5PerPattern: 3,
		Fig5Noises:     []float64{0.15},
		Fig7Sizes:      []int{240},
		Fig7Queries:    8,
		Fig7Clusters:   48,
		Fig7Patterns:   12,
		MaxK:           6,
		EMMaxIter:      12,
		Seed:           1,
	}
}

// benchSequences returns a deterministic synthetic trajectory set.
func benchSequences(b *testing.B, perPattern int, patterns int) *synth.Dataset {
	b.Helper()
	ds, err := synth.Generate(synth.Config{
		PerPattern:  perPattern,
		NoisePct:    0.10,
		Seed:        7,
		NumPatterns: patterns,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// --- Micro-benchmarks: distance kernels -------------------------------

func benchPair(b *testing.B) (dist.Sequence, dist.Sequence) {
	b.Helper()
	ds := benchSequences(b, 1, 48)
	return ds.Items[3], ds.Items[29]
}

func BenchmarkEGED(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.EGED(x, y)
	}
}

func BenchmarkEGEDM(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.EGEDMZero(x, y)
	}
}

func BenchmarkDTW(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.DTW(x, y)
	}
}

func BenchmarkLCS(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.LCSLength(x, y, 12)
	}
}

// workerSweep is the worker-count axis of the parallel benchmarks: 1
// (the paper's sequential baseline), then 2, 4 and one-per-CPU as far as
// the host has CPUs — a count beyond NumCPU would report scaling the host
// cannot support.
func workerSweep() []int {
	n := runtime.NumCPU()
	sweep := []int{1}
	for _, w := range []int{2, 4, n} {
		if w <= n && w > sweep[len(sweep)-1] {
			sweep = append(sweep, w)
		}
	}
	return sweep
}

// --- Micro-benchmarks: pipeline stages --------------------------------

// BenchmarkSTRGBuild measures RAG construction plus graph-based tracking
// (Algorithm 1) for one 24-frame segment with two moving objects.
func BenchmarkSTRGBuild(b *testing.B) {
	p := video.StreamProfile{Name: "B", Kind: video.KindLab, NumObjects: 2, SegmentFrames: 24, ObjectsPerSegment: 2}
	stream, err := video.GenerateStream(p, 3)
	if err != nil {
		b.Fatal(err)
	}
	seg := stream.Segments[0]
	cfg := strg.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strg.Build(seg, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTRGBuildParallel sweeps the Concurrency knob over a busier
// segment (eight objects), where the per-frame RAGs and Algorithm 1's
// candidate scoring carry enough work to fan out.
func BenchmarkSTRGBuildParallel(b *testing.B) {
	p := video.StreamProfile{Name: "B", Kind: video.KindLab, NumObjects: 8, SegmentFrames: 24, ObjectsPerSegment: 8}
	stream, err := video.GenerateStream(p, 3)
	if err != nil {
		b.Fatal(err)
	}
	seg := stream.Segments[0]
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := strg.DefaultConfig()
			cfg.Concurrency = workers
			for i := 0; i < b.N; i++ {
				if _, err := strg.Build(seg, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompose measures ORG extraction, OG merging and BG collapse.
func BenchmarkDecompose(b *testing.B) {
	p := video.StreamProfile{Name: "B", Kind: video.KindLab, NumObjects: 2, SegmentFrames: 24, ObjectsPerSegment: 2}
	stream, err := video.GenerateStream(p, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := strg.DefaultConfig()
	s, err := strg.Build(stream.Segments[0], cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Decompose(cfg)
	}
}

// --- Table 1: stream ingest through the full pipeline -----------------

func BenchmarkTable1Ingest(b *testing.B) {
	p := video.StreamProfile{Name: "Lab2", Kind: video.KindLab, NumObjects: 4, SegmentFrames: 24, ObjectsPerSegment: 2}
	stream, err := video.GenerateStream(p, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := core.Open(core.DefaultConfig())
		if err := db.IngestStream(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: the clustering grid's dominant cell --------------------

func BenchmarkFigure5ClusteringGrid(b *testing.B) {
	ds := benchSequences(b, 3, 48)
	cfg := cluster.Config{K: 48, MaxIter: 12, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.EM(ds.Items, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6(b): cluster building under a fixed iteration budget -----

func BenchmarkFigure6ClusterBuild(b *testing.B) {
	ds := benchSequences(b, 3, 48)
	for _, tc := range []struct {
		name string
		run  func([]dist.Sequence, cluster.Config) (*cluster.Result, error)
	}{
		{"EM", cluster.EM},
		{"KM", cluster.KMeans},
		{"KHM", cluster.KHarmonicMeans},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := cluster.Config{K: 48, MaxIter: 8, Tol: 1e-12, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := tc.run(ds.Items, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6ClusterBuildParallel sweeps EM cluster building (the
// Figure 6(b) workload) over the worker pool.
func BenchmarkFigure6ClusterBuildParallel(b *testing.B) {
	ds := benchSequences(b, 3, 48)
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := cluster.Config{K: 48, MaxIter: 8, Tol: 1e-12, Seed: 1, Concurrency: workers}
			for i := 0; i < b.N; i++ {
				if _, err := cluster.EM(ds.Items, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7(a): index building --------------------------------------

func BenchmarkFigure7IndexBuild(b *testing.B) {
	ds := benchSequences(b, 20, 12)
	items := make([]index.Item[int], len(ds.Items))
	for i, seq := range ds.Items {
		items[i] = index.Item[int]{Seq: seq, Payload: i}
	}
	b.Run("STRG-Index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := index.New[int](index.Config{NumClusters: 12, EMMaxIter: 12, Seed: 1})
			if err := tr.AddSegment(nil, items); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tc := range []struct {
		name   string
		policy mtree.PromotePolicy
	}{
		{"MT-RA", mtree.PromoteRandom},
		{"MT-SA", mtree.PromoteSampling},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := mtree.New[int](mtree.Config{Metric: dist.EGEDMZero, Policy: tc.policy, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				for j, seq := range ds.Items {
					tr.Insert(seq, j)
				}
			}
		})
	}
}

// --- Figure 7(b): k-NN query cost --------------------------------------

func BenchmarkFigure7KNN(b *testing.B) {
	ds := benchSequences(b, 20, 12)
	items := make([]index.Item[int], len(ds.Items))
	for i, seq := range ds.Items {
		items[i] = index.Item[int]{Seq: seq, Payload: i}
	}
	strgTree := index.New[int](index.Config{NumClusters: 12, EMMaxIter: 12, Seed: 1})
	if err := strgTree.AddSegment(nil, items); err != nil {
		b.Fatal(err)
	}
	mt, err := mtree.New[int](mtree.Config{Metric: dist.EGEDMZero, Policy: mtree.PromoteRandom, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for j, seq := range ds.Items {
		mt.Insert(seq, j)
	}
	queries := benchSequences(b, 1, 12).Items
	rng := rand.New(rand.NewSource(9))
	b.Run("STRG-Index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strgTree.KNN(nil, queries[rng.Intn(len(queries))], 10)
		}
	})
	b.Run("MT-RA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mt.KNN(queries[rng.Intn(len(queries))], 10)
		}
	})
	b.Run("STRG-Index-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strgTree.KNNExact(nil, queries[rng.Intn(len(queries))], 10)
		}
	})
}

// BenchmarkFigure7KNNParallel sweeps the exact k-NN search (the mode that
// scans several leaves and thus benefits from parallel leaf scans) over
// the worker pool. Each worker count builds its own tree so construction
// parallelism is exercised too; results are identical at every setting.
func BenchmarkFigure7KNNParallel(b *testing.B) {
	ds := benchSequences(b, 20, 12)
	items := make([]index.Item[int], len(ds.Items))
	for i, seq := range ds.Items {
		items[i] = index.Item[int]{Seq: seq, Payload: i}
	}
	queries := benchSequences(b, 1, 12).Items
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tr := index.New[int](index.Config{NumClusters: 12, EMMaxIter: 12, Seed: 1, Concurrency: workers})
			if err := tr.AddSegment(nil, items); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.KNNExact(nil, queries[rng.Intn(len(queries))], 10)
			}
		})
	}
}

// --- Filter-and-refine distance cascade --------------------------------

// BenchmarkCascadeKNNExact measures the distance cascade on the exact
// k-NN workload over one tree layout:
//
//	stage=exact    cascade disabled — every surviving record pays the
//	               full DP (the pre-cascade baseline)
//	stage=cascade  lower bounds + early-abandoning kernels
//
// Beyond ns/op it reports DP cells evaluated and the per-stage record
// dispositions as custom /op metrics (benchjson collects them under
// "extra"), so BENCH_cascade.json records how much work each stage of
// the cascade eliminated.
func BenchmarkCascadeKNNExact(b *testing.B) {
	ds := benchSequences(b, 20, 12)
	items := make([]index.Item[int], len(ds.Items))
	for i, seq := range ds.Items {
		items[i] = index.Item[int]{Seq: seq, Payload: i}
	}
	queries := benchSequences(b, 1, 12).Items
	for _, tc := range []struct {
		name string
		mut  func(*index.Config)
	}{
		{"stage=exact", func(c *index.Config) { c.DisableCascade = true }},
		{"stage=cascade", nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := index.Config{NumClusters: 12, EMMaxIter: 12, Seed: 1}
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			tr := index.New[int](cfg)
			if err := tr.AddSegment(nil, items); err != nil {
				b.Fatal(err)
			}
			var agg index.SearchStats
			cells := dist.DPCells()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := tr.KNNExactStatsCtx(context.Background(), nil, queries[i%len(queries)], 10)
				if err != nil {
					b.Fatal(err)
				}
				agg.Records += st.Records
				agg.LBQuickPruned += st.LBQuickPruned
				agg.LBEnvelopePruned += st.LBEnvelopePruned
				agg.DPEvaluated += st.DPEvaluated
				agg.DPAbandoned += st.DPAbandoned
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(dist.DPCells()-cells)/n, "dp_cells/op")
			b.ReportMetric(float64(agg.Records)/n, "records/op")
			b.ReportMetric(float64(agg.LBQuickPruned+agg.LBEnvelopePruned)/n, "lb_pruned/op")
			b.ReportMetric(float64(agg.DPAbandoned)/n, "dp_abandoned/op")
			b.ReportMetric(float64(agg.DPEvaluated)/n, "dp_evaluated/op")
		})
	}
}

// BenchmarkBatchedLeafDP isolates the columnar tentpole's kernel gain:
// the same query × candidate-set DP workload through the per-pair
// sequence kernel (a sync.Pool round-trip and three Norm calls per cell)
// and through the batched columnar kernel (one arena, hoisted gap costs,
// one inlined sqrt and a branch-free minimum per cell on 2-D input). The
// results are bit-identical by construction; only the time may differ.
// Both report ns/cell, the kernels' unit cost. benchjson enforces batched
// >= 2.5x per-pair from these two entries — a per-core property, so it
// holds on any box.
func BenchmarkBatchedLeafDP(b *testing.B) {
	ds := benchSequences(b, 8, 12)
	query := ds.Items[0]
	cands := ds.Items[1:]
	blocks := make([]dist.Block, len(cands))
	for i, c := range cands {
		blocks[i] = dist.FromSequence(c)
	}
	qb := dist.FromSequence(query)
	// A finite shared threshold so both kernels exercise the abandon path
	// the way a leaf scan does.
	ub := dist.EGEDM(query, cands[len(cands)/2], nil)
	reportCell := func(b *testing.B, cells0 int64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dist.DPCells()-cells0), "ns/cell")
	}

	b.Run("kernel=perpair", func(b *testing.B) {
		cells := dist.DPCells()
		for i := 0; i < b.N; i++ {
			for _, c := range cands {
				dist.EGEDMUB(query, c, nil, ub)
			}
		}
		reportCell(b, cells)
	})
	b.Run("kernel=batched", func(b *testing.B) {
		arena := dist.NewBatchQuery(qb, nil).NewBatch()
		cells := dist.DPCells()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range blocks {
				arena.DistanceUB(c, ub)
			}
		}
		reportCell(b, cells)
	})
}

// rankCorpus bulk-loads n synthetic pattern trajectories (the corpus
// recipe of the end-to-end harness, scaled down) and returns the query
// trajectories to rank against them.
func rankCorpus(b *testing.B, n int, approx bool) (*core.VideoDB, []dist.Sequence) {
	b.Helper()
	ds := benchSequences(b, (n+47)/48, 48)
	ogs := make([]*strg.OG, n)
	for i := range ogs {
		ogs[i] = synth.AsOG(i, ds.Items[i], ds.Patterns[ds.Labels[i]].Name)
	}
	cfg := core.DefaultConfig()
	cfg.Approx = core.ApproxConfig{Enabled: approx, NLists: 8, TrainSize: 128}
	db := core.Open(cfg)
	if err := db.IngestTrajectories("corpus", ogs); err != nil {
		b.Fatal(err)
	}
	return db, benchSequences(b, 1, 48).Items
}

// BenchmarkRankStage measures the executor's rank stage alone: one k-NN
// ranked over 512 stored OGs through QueryComposedCtx, under a where-tree
// that admits them all (so the access and filter stages are a scan of
// cheap length checks). The stage streams stored blocks through one
// prepared query and one arena; allocs/op is the whole query's and must
// not grow with the 512 (candidates/op records the denominator).
func BenchmarkRankStage(b *testing.B) {
	const n = 512
	db, trajs := rankCorpus(b, n, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryComposedCtx(context.Background(), &query.Query{
			Where:   query.LengthNode{Min: 0},
			Similar: &query.SimilarClause{Trajectory: trajs[i%len(trajs)], K: 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		if in := res.Stages[len(res.Stages)-1].In; in != n {
			b.Fatalf("rank stage saw %d candidates, want %d", in, n)
		}
	}
	b.ReportMetric(n, "candidates/op")
}

// BenchmarkApproxRerank measures the approximate tier's probe + exact
// rerank with every list probed, so all 512 stored OGs enter the rerank
// cascade (bounds, then the batched kernel over the stored blocks).
func BenchmarkApproxRerank(b *testing.B) {
	const n = 512
	db, trajs := rankCorpus(b, n, true)
	nlists, _ := db.ApproxLists()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryComposedCtx(context.Background(), &query.Query{
			Similar: &query.SimilarClause{Trajectory: trajs[i%len(trajs)], K: 10,
				Mode: query.ModeApprox, NProbe: nlists},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Approx.Candidates != n {
			b.Fatalf("rerank saw %d candidates, want %d", res.Approx.Candidates, n)
		}
	}
	b.ReportMetric(n, "candidates/op")
}

// BenchmarkColumnarKNNExact measures the columnar layout and its batched
// kernel end to end on the exact k-NN workload (BenchmarkBatchedLeafDP
// keeps the per-pair kernel as its reference).
func BenchmarkColumnarKNNExact(b *testing.B) {
	ds := benchSequences(b, 20, 12)
	items := make([]index.Item[int], len(ds.Items))
	for i, seq := range ds.Items {
		items[i] = index.Item[int]{Seq: seq, Payload: i}
	}
	queries := benchSequences(b, 1, 12).Items
	b.Run("layout=columnar", func(b *testing.B) {
		// Few clusters leave each leaf holding several patterns, so the
		// record-level tiers (not leaf skipping) do the pruning.
		tr := index.New[int](index.Config{NumClusters: 2, EMMaxIter: 12, Seed: 1})
		if err := tr.AddSegment(nil, items); err != nil {
			b.Fatal(err)
		}
		cells := dist.DPCells()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := tr.KNNExactStatsCtx(context.Background(), nil, queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		n := float64(b.N)
		b.ReportMetric(float64(dist.DPCells()-cells)/n, "dp_cells/op")
	})
}

// BenchmarkCascadeRange is the range-query counterpart: the fixed radius
// is a hard threshold for every cascade stage, so pruning is strongest
// here.
func BenchmarkCascadeRange(b *testing.B) {
	ds := benchSequences(b, 20, 12)
	items := make([]index.Item[int], len(ds.Items))
	for i, seq := range ds.Items {
		items[i] = index.Item[int]{Seq: seq, Payload: i}
	}
	queries := benchSequences(b, 1, 12).Items
	for _, tc := range []struct {
		name string
		mut  func(*index.Config)
	}{
		{"stage=exact", func(c *index.Config) { c.DisableCascade = true }},
		{"stage=cascade", nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := index.Config{NumClusters: 12, EMMaxIter: 12, Seed: 1}
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			tr := index.New[int](cfg)
			if err := tr.AddSegment(nil, items); err != nil {
				b.Fatal(err)
			}
			cells := dist.DPCells()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tr.RangeStatsCtx(context.Background(), nil, queries[i%len(queries)], 120); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(dist.DPCells()-cells)/float64(b.N), "dp_cells/op")
		})
	}
}

// --- Figure 7(c) end-to-end + Figure 8 + Table 2 ----------------------

// BenchmarkFigure7EndToEnd runs the whole Figure 7 experiment (all three
// panels) at the bench scale.
func BenchmarkFigure7EndToEnd(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(scale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8BIC measures the BIC scan over K for one ingested
// stream.
func BenchmarkFigure8BIC(b *testing.B) {
	ds := benchSequences(b, 8, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.OptimalK(ds.Items, 1, 6, cluster.Config{MaxIter: 12, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2SizeAccounting measures the decomposition size accounting
// path (Equations 9 and 10) over an ingested stream.
func BenchmarkTable2SizeAccounting(b *testing.B) {
	p := video.StreamProfile{Name: "Lab2", Kind: video.KindLab, NumObjects: 4, SegmentFrames: 24, ObjectsPerSegment: 2}
	stream, err := video.GenerateStream(p, 5)
	if err != nil {
		b.Fatal(err)
	}
	db := core.Open(core.DefaultConfig())
	if err := db.IngestStream(stream); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Stats()
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationLeafSearch compares Algorithm 3's key-pruned leaf
// search against a full linear scan of the database, isolating the value
// of the metric key.
func BenchmarkAblationLeafSearch(b *testing.B) {
	ds := benchSequences(b, 20, 12)
	items := make([]index.Item[int], len(ds.Items))
	for i, seq := range ds.Items {
		items[i] = index.Item[int]{Seq: seq, Payload: i}
	}
	tr := index.New[int](index.Config{NumClusters: 12, EMMaxIter: 12, Seed: 1})
	if err := tr.AddSegment(nil, items); err != nil {
		b.Fatal(err)
	}
	q := benchSequences(b, 1, 12).Items[5]
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.KNN(nil, q, 10)
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			best := -1.0
			for _, it := range ds.Items {
				if d := dist.EGEDMZero(q, it); best < 0 || d < best {
					best = d
				}
			}
		}
	})
}

// BenchmarkAblationGapModels compares the three gap models of the EGED
// family on the same pair.
func BenchmarkAblationGapModels(b *testing.B) {
	x, y := benchPair(b)
	for _, tc := range []struct {
		name  string
		model dist.GapModel
	}{
		{"midpoint", dist.GapMidpoint},
		{"previous", dist.GapPrevious},
		{"constant", dist.GapConstant},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist.EGEDWith(x, y, tc.model, dist.Vec{0, 0})
			}
		})
	}
}

// BenchmarkAblation3DRTree quantifies the paper's Section 1 critique of
// the 3DR-tree: for motion-similarity queries it must generate and verify
// candidates, spending far more metric evaluations than the STRG-Index's
// clustered descent.
func BenchmarkAblation3DRTree(b *testing.B) {
	ds := benchSequences(b, 20, 12)
	items := make([]index.Item[int], len(ds.Items))
	for i, seq := range ds.Items {
		items[i] = index.Item[int]{Seq: seq, Payload: i}
	}
	strgTree := index.New[int](index.Config{NumClusters: 12, EMMaxIter: 12, Seed: 1})
	if err := strgTree.AddSegment(nil, items); err != nil {
		b.Fatal(err)
	}
	ti, err := rtree.NewTrajectoryIndex[int](16)
	if err != nil {
		b.Fatal(err)
	}
	for i, seq := range ds.Items {
		ti.Insert(seq, 0, i)
	}
	q := benchSequences(b, 1, 12).Items[5]
	b.Run("similar-strg-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strgTree.KNN(nil, q, 10)
		}
	})
	b.Run("similar-3dr-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ti.SimilarK(q, 0, 10, 60, dist.EGEDMZero)
		}
	})
}

// BenchmarkOnlineIngest measures the one tracker's per-frame cost — what
// a live feed pays per accepted frame: STRG.Add, one RAG build plus one
// round of Algorithm 1 against the previous frame. Each op grows one
// 24-frame segment (Build over its first frame, Add for the rest);
// ns/frame divides by the frames.
func BenchmarkOnlineIngest(b *testing.B) {
	p := video.StreamProfile{Name: "B", Kind: video.KindLab, NumObjects: 2, SegmentFrames: 24, ObjectsPerSegment: 2}
	stream, err := video.GenerateStream(p, 3)
	if err != nil {
		b.Fatal(err)
	}
	seg := stream.Segments[0]
	first := *seg
	first.Frames = seg.Frames[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := strg.Build(&first, strg.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range seg.Frames[1:] {
			s.Add(f)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(seg.Frames)), "ns/frame")
}

// BenchmarkShotDetection measures boundary detection over a multi-scene
// recording.
func BenchmarkShotDetection(b *testing.B) {
	var parts []*video.Segment
	for i := 0; i < 3; i++ {
		seg, err := video.Generate(video.SceneConfig{
			Name: "s", Width: 320, Height: 240, FPS: 12, Frames: 16,
			BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8,
			BackgroundShade: float64(i) * 0.3, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		parts = append(parts, seg)
	}
	movie, err := video.Concat("m", parts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cuts := shot.DetectBoundaries(movie.Frames, shot.Config{}); len(cuts) != 2 {
			b.Fatalf("cuts = %d", len(cuts))
		}
	}
}

// BenchmarkAblationBridging compares tracking with and without occlusion
// gap bridging on an occlusion-heavy scene.
func BenchmarkAblationBridging(b *testing.B) {
	seg, err := video.Generate(video.SceneConfig{
		Name: "occl", Width: 320, Height: 240, FPS: 12, Frames: 16,
		BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.3, Seed: 12,
		Occlusion: true,
		Objects: []video.ObjectSpec{
			{
				Label: "truck",
				Parts: []video.PartSpec{{Size: 5200, Color: graphColor(0.9, 0.8, 0.1)}},
				Path:  []geom.Point{geom.Pt(150, 120), geom.Pt(170, 120)},
				Start: 0, End: 16,
			},
			{
				Label: "runner",
				Parts: []video.PartSpec{{Size: 260, Color: graphColor(0.1, 0.9, 0.9)}},
				Path:  []geom.Point{geom.Pt(20, 122), geom.Pt(300, 122)},
				Start: 0, End: 16,
			},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		bridge int
	}{
		{"no-bridge", 0},
		{"bridge-5", 5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := strg.DefaultConfig()
			cfg.BridgeFrames = tc.bridge
			for i := 0; i < b.N; i++ {
				s, err := strg.Build(seg, cfg)
				if err != nil {
					b.Fatal(err)
				}
				s.Decompose(cfg)
			}
		})
	}
}

func graphColor(r, g, bl float64) graph.Color { return graph.Color{R: r, G: g, B: bl} }

// ringDB ingests a ring workload: walkers on short arcs spread around a
// circle, so a small query rect touches only the handful of trajectories
// near one ring position. This is the shape where the trajectory R-tree's
// pruning shows — and the one the planner perf floor is enforced on.
func ringDB(b testing.TB, disableTraj bool) *core.VideoDB {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Concurrency = 2
	cfg.DisableTrajIndex = disableTraj
	db := core.Open(cfg)
	const segments, perSeg = 192, 4
	for s := 0; s < segments; s++ {
		objs := make([]video.ObjectSpec, perSeg)
		for o := range objs {
			// Stride so one segment's objects sit on opposite sides of the
			// ring — adjacent ring positions are a few pixels apart and
			// would merge into one region.
			i := o*segments + s
			ang := 2 * math.Pi * float64(i) / float64(segments*perSeg)
			// Three concentric rings, so a rect near the outer ring's edge
			// leaves the inner rings' trajectories entirely outside the
			// probe. Radial gaps stay > 25px so same-segment walkers on
			// different rings never merge into one region.
			scale := []float64{1, 0.62, 0.3}[i%3]
			cx, cy := 160+100*scale*math.Cos(ang), 120+75*scale*math.Sin(ang)
			// A short chord along the ring's tangent: fast enough that the
			// tracker keeps the walker (too-slow objects collapse into the
			// background) but with a small spatial footprint, so a probe
			// only surfaces trajectories near one ring position.
			tx, ty := -12*math.Sin(ang), 12*math.Cos(ang)
			objs[o] = video.ObjectSpec{
				Label: fmt.Sprintf("ring-%d", i),
				Parts: []video.PartSpec{{Size: 300, Color: graphColor(0.8, 0.3, 0.3)}},
				Path:  []geom.Point{geom.Pt(cx-tx, cy-ty), geom.Pt(cx+tx, cy+ty)},
				Start: 0, End: 6,
			}
		}
		seg, err := video.Generate(video.SceneConfig{
			Name: fmt.Sprintf("ring-%d", s), Width: 320, Height: 240, FPS: 12, Frames: 6,
			BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.5, Seed: int64(1000 + s),
			Objects: objs,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.IngestSegment("ring", seg); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkPlannerSelect pits the planner's rtree-assisted spatial select
// against the forced full scan (DisableTrajIndex) on the ring workload.
// `make bench-json` feeds both into cmd/benchjson -check, which enforces
// the floor: the rtree plan must run >= 2x faster than the scan. Both
// databases hold the identical corpus, so the answers are identical —
// only the work differs.
func BenchmarkPlannerSelect(b *testing.B) {
	rect := geom.Rect{Min: geom.Pt(254, 110), Max: geom.Pt(266, 128)}
	newQuery := func() *query.Query {
		return &query.Query{Where: query.SpatialNode{Kind: query.SpatialPasses, Rect: rect}}
	}
	run := func(b *testing.B, db *core.VideoDB, want query.Strategy) {
		res, err := db.QueryComposedCtx(context.Background(), newQuery())
		if err != nil {
			b.Fatal(err)
		}
		if res.Plan.Strategy != want {
			b.Fatalf("plan strategy = %s, want %s", res.Plan.Strategy, want)
		}
		if len(res.Matches) == 0 {
			b.Fatal("query matched nothing: the rect missed the ring")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryComposedCtx(context.Background(), newQuery()); err != nil {
				b.Fatal(err)
			}
		}
	}
	withIndex := ringDB(b, false)
	fullScan := ringDB(b, true)
	b.Run("access=rtree", func(b *testing.B) { run(b, withIndex, query.StrategyRTree) })
	b.Run("access=scan", func(b *testing.B) { run(b, fullScan, query.StrategyScan) })
}

// BenchmarkFeedDispatch prices one commit against the feed_live
// subscription mix of the end-to-end harness: 9 000 30×30 passes_through
// rectangles, 1 000 pure k-NN (k = 5) and one catch-all, all registered
// before the first frame. Each op ingests one six-frame segment carrying a
// single walker — a 1-OG delta — and waits for the engine to quiesce, so
// ns/op is the whole commit (video pipeline, index insert, dispatch). The
// engine's own share is reported from its /metrics families, the same
// numbers an operator reads: dispatch_ns/op, candidates/op (of the 10 001
// a walk of every subscription would evaluate), dp_abandoned/op (k-NN DPs
// the kth distance cut short, of 1 000) and reconcile_share (the periodic
// full re-queries' part of dispatch time).
func BenchmarkFeedDispatch(b *testing.B) {
	cfg := core.DefaultConfig()
	db := core.OpenShared(cfg)
	svc, err := feed.Open(feed.Options{Dir: b.TempDir(), DB: db, STRG: &cfg.STRG})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	eng := svc.Engine()

	rng := rand.New(rand.NewSource(24))
	trajs := benchSequences(b, 21, 48).Items
	const subs = 10000
	for i := 0; i < subs; i++ {
		var q *query.Query
		if i%10 == 9 {
			q = &query.Query{Similar: &query.SimilarClause{Trajectory: trajs[i/10], K: 5}}
		} else {
			x, y := float64(rng.Intn(int(synth.FieldW)-30)), float64(rng.Intn(int(synth.FieldH)-30))
			q = &query.Query{Where: query.SpatialNode{Kind: query.SpatialPasses,
				Rect: geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+30, y+30)}}}
		}
		if _, err := eng.Register(q); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := eng.Register(&query.Query{Where: query.LengthNode{Min: 0}}); err != nil {
		b.Fatal(err)
	}

	// One walker per segment on a short random chord (4 px a frame: slow
	// enough to track, fast enough not to fade into the background).
	segs := make([]*video.Segment, 64)
	for s := range segs {
		c, ang := geom.Pt(30+rng.Float64()*260, 30+rng.Float64()*180), 2*math.Pi*rng.Float64()
		dx, dy := 12*math.Cos(ang), 12*math.Sin(ang)
		from, to := geom.Pt(c.X-dx, c.Y-dy), geom.Pt(c.X+dx, c.Y+dy)
		segs[s], err = video.Generate(video.SceneConfig{
			Name: fmt.Sprintf("walk-%d", s), Width: 320, Height: 240, FPS: 12, Frames: 6,
			BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.5, Seed: int64(2400 + s),
			Objects: []video.ObjectSpec{{
				Label: "walker", Start: 0, End: 6, Path: []geom.Point{from, to},
				Parts: []video.PartSpec{{Size: 300, Color: graphColor(0.8, 0.3, 0.3)}},
			}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	commit := func(i int) {
		seg := *segs[i%len(segs)]
		seg.Name = fmt.Sprintf("walk-%d", i)
		before := db.Stats().OGs
		if _, err := db.IngestSegment("bench", &seg); err != nil {
			b.Fatal(err)
		}
		if got := db.Stats().OGs - before; got != 1 {
			b.Fatalf("segment %d committed %d OGs, want a 1-OG delta", i, got)
		}
		eng.Quiesce()
	}
	// Warm up past k, so every k-NN result set is full and bounded.
	const warm = 16
	for i := 0; i < warm; i++ {
		commit(i)
	}

	counter := func(name string) int64 { return obs.Default.Counter(name, "", nil).Value() }
	seconds := func(name string) float64 { return obs.Default.Histogram(name, "", nil, nil).Sum() }
	cand0, aband0 := counter("strg_feed_dispatch_candidates_total"), counter("strg_feed_dispatch_dp_abandoned_total")
	disp0, rec0 := seconds("strg_feed_dispatch_seconds"), seconds("strg_feed_reconcile_seconds")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit(warm + i)
	}
	b.StopTimer()
	n := float64(b.N)
	disp := seconds("strg_feed_dispatch_seconds") - disp0
	b.ReportMetric(disp*1e9/n, "dispatch_ns/op")
	b.ReportMetric(float64(counter("strg_feed_dispatch_candidates_total")-cand0)/n, "candidates/op")
	b.ReportMetric(float64(counter("strg_feed_dispatch_dp_abandoned_total")-aband0)/n, "dp_abandoned/op")
	b.ReportMetric((seconds("strg_feed_reconcile_seconds")-rec0)/disp, "reconcile_share")
}

// BenchmarkRecoveryReplay measures crash recovery as strg-server runs it:
// OpenDurable over a directory holding a 64-record write-ahead log and no
// snapshot — what a kill -9 leaves behind — with split evaluations deferred
// to background goroutines (waited out off the clock, so one iteration's
// do not run into the next). Replay commits each logged record (the built
// OGs and background graph); ms/record is what one costs, wal_bytes/record
// what it occupies on disk and on the replication wire.
func BenchmarkRecoveryReplay(b *testing.B) {
	const records = 64
	p := video.StreamProfile{Name: "Mini", Kind: video.KindLab,
		NumObjects: 2 * records, SegmentFrames: 16, ObjectsPerSegment: 2}
	stream, err := video.GenerateStream(p, 27)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Index.AsyncSplit = true
	d := core.Durability{Dir: b.TempDir(), SnapshotOps: -1, SnapshotBytes: -1}
	db, _, err := core.OpenDurable(cfg, d)
	if err != nil {
		b.Fatal(err)
	}
	for _, seg := range stream.Segments {
		if _, err := db.IngestSegment(p.Name, seg); err != nil {
			b.Fatal(err)
		}
	}
	db.QuiesceIndex()
	walBytes := db.WALSize()
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, rec, err := core.OpenDurable(cfg, d)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if rec.ReplayedRecords != records || rec.SnapshotLoaded {
			b.Fatalf("recovery = %+v, want %d records replayed and no snapshot", rec, records)
		}
		db.QuiesceIndex()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*records), "ms/record")
	b.ReportMetric(float64(walBytes)/records, "wal_bytes/record")
}
