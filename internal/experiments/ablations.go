package experiments

import (
	"fmt"

	"strgindex/internal/cluster"
	"strgindex/internal/dist"
	"strgindex/internal/eval"
	"strgindex/internal/index"
	"strgindex/internal/mtree"
	"strgindex/internal/rtree"
	"strgindex/internal/synth"
)

// AblationResult carries the rendered ablation tables.
type AblationResult struct {
	GapModels    Table
	SearchPolicy Table
	LeafSplit    Table
	Indexes      Table
}

// Ablations runs the design-choice studies DESIGN.md calls out:
//
//   - gap models: clustering error under the midpoint (paper), previous
//     (DTW-flavored) and constant (metric) gap references;
//   - search policy: Algorithm 3's single-cluster descent vs the exact
//     all-cluster search — distance evaluations against recall;
//   - leaf split: Section 5.3's BIC-driven split on vs off;
//   - index comparison: metric evaluations per similarity query across
//     STRG-Index, M-tree and the 3DR-tree's candidate generation.
func Ablations(scale Scale) (*AblationResult, error) {
	res := &AblationResult{}
	if err := ablateGapModels(scale, res); err != nil {
		return nil, err
	}
	if err := ablateSearchAndSplit(scale, res); err != nil {
		return nil, err
	}
	return res, nil
}

func ablateGapModels(scale Scale, res *AblationResult) error {
	ds, err := synth.Generate(synth.Config{
		PerPattern: scale.Fig5PerPattern,
		NoisePct:   0.15,
		Seed:       scale.Seed,
	})
	if err != nil {
		return fmt.Errorf("experiments: gap ablation data: %w", err)
	}
	res.GapModels = Table{
		Title:  "Ablation: EGED gap model vs clustering error (EM, 15% noise)",
		Header: []string{"gap model", "error rate"},
	}
	for _, tc := range []struct {
		name  string
		model dist.GapModel
	}{
		{"midpoint (paper, non-metric)", dist.GapMidpoint},
		{"previous (DTW-flavored)", dist.GapPrevious},
		{"constant zero (metric EGED_M)", dist.GapConstant},
	} {
		model := tc.model
		metric := func(a, b dist.Sequence) float64 {
			return dist.EGEDWith(a, b, model, nil)
		}
		cr, err := cluster.EM(ds.Items, cluster.Config{
			K: ds.NumClusters(), MaxIter: scale.EMMaxIter, Seed: scale.Seed, Distance: metric,
		})
		if err != nil {
			return err
		}
		rate, err := eval.ErrorRate(cr.Assignments, ds.Labels)
		if err != nil {
			return err
		}
		res.GapModels.Rows = append(res.GapModels.Rows, []string{tc.name, pct(rate)})
	}
	return nil
}

func ablateSearchAndSplit(scale Scale, res *AblationResult) error {
	patterns := scale.Fig7Patterns
	if patterns <= 0 || patterns > 48 {
		patterns = 48
	}
	per := 20
	ds, err := synth.Generate(synth.Config{
		PerPattern: per, NoisePct: 0.10, Seed: scale.Seed, NumPatterns: patterns,
	})
	if err != nil {
		return fmt.Errorf("experiments: search ablation data: %w", err)
	}
	qds, err := synth.Generate(synth.Config{
		PerPattern: 1, NoisePct: 0.10, Seed: scale.Seed + 17, NumPatterns: patterns,
	})
	if err != nil {
		return err
	}
	items := make([]index.Item[int], len(ds.Items))
	for i, seq := range ds.Items {
		items[i] = index.Item[int]{Seq: seq, Payload: i}
	}

	build := func(maxLeaf int) (*index.Tree[int], *dist.Counter) {
		c := &dist.Counter{}
		tr := index.New[int](index.Config{
			Metric:          dist.Counted(dist.EGEDMZero, c),
			ClusterDistance: dist.Counted(dist.EGED, c),
			NumClusters:     patterns,
			EMMaxIter:       scale.EMMaxIter,
			MaxLeafEntries:  maxLeaf,
			Seed:            scale.Seed,
			// This ablation compares distance-evaluation counts, so the
			// search must run the paper's sequential cost model (parallel
			// exact search spends extra evaluations to win wall clock).
			Concurrency: 1,
		})
		if err := tr.AddSegment(nil, items); err != nil {
			panic(err) // config is static and valid; a failure here is a bug
		}
		return tr, c
	}

	// --- Search policy: Algorithm 3 vs exact --------------------------
	tr, counter := build(0)
	const k = 10
	var approxEvals, exactEvals int64
	var approxRecall float64
	for qi := range qds.Items {
		exact := tr.KNNExact(nil, qds.Items[qi], k)
		counter.Reset()
		approx := tr.KNN(nil, qds.Items[qi], k)
		approxEvals += counter.Count()
		counter.Reset()
		tr.KNNExact(nil, qds.Items[qi], k)
		exactEvals += counter.Count()
		ids := func(rs []index.Result[int]) []int {
			out := make([]int, len(rs))
			for i, r := range rs {
				out[i] = r.Payload
			}
			return out
		}
		approxRecall += eval.RecallAtK(ids(approx), ids(exact), k)
	}
	n := float64(len(qds.Items))
	res.SearchPolicy = Table{
		Title:  "Ablation: Algorithm 3 (single-cluster) vs exact all-cluster k-NN (k=10)",
		Header: []string{"policy", "mean distance evals", "recall vs exact"},
		Rows: [][]string{
			{"Algorithm 3", f1(float64(approxEvals) / n), f2(approxRecall / n)},
			{"exact", f1(float64(exactEvals) / n), "1.00"},
		},
	}

	// --- Leaf split on/off ---------------------------------------------
	// The occupancy rule splits a leaf past MaxLeafEntries with one K = 2
	// EM fit, again until every leaf fits. The workload is bimodal: two
	// far-apart motion patterns (80 OGs) forced into a single initial
	// cluster under a bound of 32. With splitting on the overfull leaf is
	// carved apart and queries touch one part; with it off every query
	// scans the whole leaf.
	res.LeafSplit = Table{
		Title:  "Ablation: Section 5.3 leaf split on a bimodal leaf (k-NN evals at k=10)",
		Header: []string{"configuration", "clusters", "mean distance evals"},
	}
	biDS, err := synth.Generate(synth.Config{PerPattern: 40, NoisePct: 0.05, Seed: scale.Seed, NumPatterns: 24})
	if err != nil {
		return err
	}
	var biItems []index.Item[int]
	var biQueries []dist.Sequence
	for i, seq := range biDS.Items {
		// Pattern 0: a vertical lane. Pattern 13: a horizontal lane.
		// Their trajectories share no part of the field.
		switch biDS.Labels[i] {
		case 0, 13:
			biItems = append(biItems, index.Item[int]{Seq: seq, Payload: i})
			if len(biQueries) < 10 {
				biQueries = append(biQueries, seq)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		maxLeaf int
	}{
		{"split on (bound 32)", 32},
		{"split off (unbounded leaves)", 1 << 30},
	} {
		c := &dist.Counter{}
		tr := index.New[int](index.Config{
			Metric:         dist.Counted(dist.EGEDMZero, c),
			NumClusters:    1,
			EMMaxIter:      scale.EMMaxIter,
			MaxLeafEntries: tc.maxLeaf,
			Seed:           scale.Seed,
			Concurrency:    1, // eval-count comparison: sequential cost model
		})
		if err := tr.AddSegment(nil, biItems); err != nil {
			return err
		}
		c.Reset()
		for _, q := range biQueries {
			tr.KNN(nil, q, k)
		}
		res.LeafSplit.Rows = append(res.LeafSplit.Rows, []string{
			tc.name,
			fmt.Sprintf("%d", tr.NumClusters()),
			f1(float64(c.Count()) / float64(len(biQueries))),
		})
	}

	// --- Index comparison on similarity queries ------------------------
	strgTree, strgC := build(0)
	mtC := &dist.Counter{}
	mt, err := mtree.New[int](mtree.Config{
		Metric: dist.Counted(dist.EGEDMZero, mtC), Seed: scale.Seed,
	})
	if err != nil {
		return err
	}
	for i, seq := range ds.Items {
		mt.Insert(seq, i)
	}
	ti, err := rtree.NewTrajectoryIndex[int](16)
	if err != nil {
		return err
	}
	for i, seq := range ds.Items {
		ti.Insert(seq, 0, i)
	}
	strgC.Reset()
	mtC.Reset()
	var rtreeEvals int
	for qi := range qds.Items {
		strgTree.KNN(nil, qds.Items[qi], k)
		mt.KNN(qds.Items[qi], k)
		_, evals, _ := ti.SimilarK(qds.Items[qi], 0, k, 60, dist.EGEDMZero)
		rtreeEvals += evals
	}
	res.Indexes = Table{
		Title:  "Ablation: metric evaluations per similarity query (k=10)",
		Header: []string{"index", "mean distance evals"},
		Rows: [][]string{
			{"STRG-Index (Algorithm 3)", f1(float64(strgC.Count()) / n)},
			{"M-tree (RANDOM)", f1(float64(mtC.Count()) / n)},
			{"3DR-tree (candidates + verify)", f1(float64(rtreeEvals) / n)},
		},
	}
	return nil
}

// Render prints the four ablation tables.
func (r *AblationResult) Render() string {
	return r.GapModels.Render() + "\n" + r.SearchPolicy.Render() + "\n" +
		r.LeafSplit.Render() + "\n" + r.Indexes.Render()
}
