package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"strgindex/internal/dist"
	"strgindex/internal/eval"
	"strgindex/internal/index"
	"strgindex/internal/mtree"
	"strgindex/internal/synth"
)

// indexName labels the three contenders of Figure 7.
const (
	nameSTRG = "STRG-Index"
	nameMTRA = "MT-RA"
	nameMTSA = "MT-SA"
)

// Fig7BuildPoint is one point of Figure 7(a). BuildEvals records the
// distance computations spent building — the hardware-independent cost
// the paper's own query model argues from.
type Fig7BuildPoint struct {
	Index      string
	Size       int
	BuildTime  time.Duration
	BuildEvals int64
}

// Fig7KNNPoint is one point of Figure 7(b): mean distance computations per
// k-NN query.
type Fig7KNNPoint struct {
	Index        string
	K            int
	DistanceEval float64
}

// Fig7PRPoint is one point of Figure 7(c): precision and recall at a
// retrieval depth.
type Fig7PRPoint struct {
	Index     string
	K         int
	Precision float64
	Recall    float64
}

// Fig7Result carries all three panels.
type Fig7Result struct {
	Build []Fig7BuildPoint
	KNN   []Fig7KNNPoint
	PR    []Fig7PRPoint
}

// fig7DB bundles one built index pair (items live outside).
type fig7DB struct {
	strg *index.Tree[int]
	ra   *mtree.Tree[int]
	sa   *mtree.Tree[int]
	// counters observe each structure's metric evaluations.
	strgC, raC, saC *dist.Counter
}

// buildFig7DB constructs all three indexes over the same items, returning
// build times through the result slice.
func buildFig7DB(items []dist.Sequence, clusters int, emIter int, seed int64, size int, res *Fig7Result) (*fig7DB, error) {
	db := &fig7DB{strgC: &dist.Counter{}, raC: &dist.Counter{}, saC: &dist.Counter{}}

	// Both the metric (leaf keys, EGED_M) and the clustering distance
	// (EM build, Algorithm 3's centroid descent, non-metric EGED) count
	// toward the STRG-Index's evaluations — anything less would
	// under-report its costs.
	strgTree := index.New[int](index.Config{
		Metric:          dist.Counted(dist.EGEDMZero, db.strgC),
		ClusterDistance: dist.Counted(dist.EGED, db.strgC),
		NumClusters:     clusters,
		// The paper's K = 48 clusters, never split: the bound sits above
		// every leaf the fit can produce.
		MaxLeafEntries: len(items),
		EMMaxIter:      emIter,
		Seed:           seed,
		// The panels report distance-evaluation counts, the paper's
		// hardware-independent cost model; sequential search keeps the
		// counts comparable to it (parallel exact search trades extra
		// evaluations for wall-clock speed).
		Concurrency: 1,
	})
	batch := make([]index.Item[int], len(items))
	for i, seq := range items {
		batch[i] = index.Item[int]{Seq: seq, Payload: i}
	}
	db.strgC.Reset()
	buildTime := timed(func() {
		if err := strgTree.AddSegment(nil, batch); err != nil {
			panic(err) // surfaced below via recover-free design: AddSegment only fails on clustering config
		}
	})
	res.Build = append(res.Build, Fig7BuildPoint{
		Index: nameSTRG, Size: size, BuildTime: buildTime, BuildEvals: db.strgC.Count(),
	})
	db.strg = strgTree

	mk := func(policy mtree.PromotePolicy, c *dist.Counter, name string) (*mtree.Tree[int], error) {
		tr, err := mtree.New[int](mtree.Config{
			Metric:     dist.Counted(dist.EGEDMZero, c),
			MaxEntries: 16,
			Policy:     policy,
			Seed:       seed,
		})
		if err != nil {
			return nil, err
		}
		c.Reset()
		elapsed := timed(func() {
			for i, seq := range items {
				tr.Insert(seq, i)
			}
		})
		res.Build = append(res.Build, Fig7BuildPoint{
			Index: name, Size: size, BuildTime: elapsed, BuildEvals: c.Count(),
		})
		return tr, nil
	}
	var err error
	if db.ra, err = mk(mtree.PromoteRandom, db.raC, nameMTRA); err != nil {
		return nil, err
	}
	if db.sa, err = mk(mtree.PromoteSampling, db.saC, nameMTSA); err != nil {
		return nil, err
	}
	return db, nil
}

// Figure7 runs the indexing comparison: build time across database sizes
// (panel a), distance computations per k-NN query for k = 5..30 (panel b)
// and precision/recall (panel c) on the largest database.
func Figure7(scale Scale) (*Fig7Result, error) {
	res := &Fig7Result{}
	var largest *fig7DB
	var largestDS *synth.Dataset
	patterns := scale.Fig7Patterns
	if patterns <= 0 || patterns > 48 {
		patterns = 48
	}
	for _, size := range scale.Fig7Sizes {
		per := size / patterns
		if per < 1 {
			per = 1
		}
		ds, err := synth.Generate(synth.Config{
			PerPattern:  per,
			NoisePct:    0.10,
			Seed:        scale.Seed,
			NumPatterns: patterns,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 7 data (size %d): %w", size, err)
		}
		clusters := ds.NumClusters()
		if scale.Fig7Clusters > 0 && clusters > scale.Fig7Clusters {
			clusters = scale.Fig7Clusters
		}
		buildIter := scale.Fig7BuildIter
		if buildIter <= 0 {
			buildIter = 8
		}
		db, err := buildFig7DB(ds.Items, clusters, buildIter, scale.Seed, ds.Len(), res)
		if err != nil {
			return nil, err
		}
		largest, largestDS = db, ds
	}

	// Panels (b) and (c) on the largest database, fresh query objects not
	// present in the data (the paper: "query data is composed of OGs that
	// are not presented in the data sets").
	qds, err := synth.Generate(synth.Config{
		PerPattern:  1,
		NoisePct:    0.10,
		Seed:        scale.Seed + 999,
		NumPatterns: patterns,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(scale.Seed + 7))
	queries := make([]int, 0, scale.Fig7Queries)
	for len(queries) < scale.Fig7Queries {
		queries = append(queries, rng.Intn(qds.Len()))
	}

	for k := 5; k <= 30; k += 5 {
		largest.strgC.Reset()
		largest.raC.Reset()
		largest.saC.Reset()
		for _, qi := range queries {
			largest.strg.KNN(nil, qds.Items[qi], k)
		}
		strgCost := float64(largest.strgC.Count()) / float64(len(queries))
		for _, qi := range queries {
			largest.ra.KNN(qds.Items[qi], k)
		}
		raCost := float64(largest.raC.Count()) / float64(len(queries))
		for _, qi := range queries {
			largest.sa.KNN(qds.Items[qi], k)
		}
		saCost := float64(largest.saC.Count()) / float64(len(queries))
		res.KNN = append(res.KNN,
			Fig7KNNPoint{Index: nameSTRG, K: k, DistanceEval: strgCost},
			Fig7KNNPoint{Index: nameMTRA, K: k, DistanceEval: raCost},
			Fig7KNNPoint{Index: nameMTSA, K: k, DistanceEval: saCost},
		)
	}

	// Panel (c): precision/recall against pattern-label relevance.
	relevant := func(qi int) map[int]bool {
		out := make(map[int]bool)
		for i, l := range largestDS.Labels {
			if l == qds.Labels[qi] {
				out[i] = true
			}
		}
		return out
	}
	for _, k := range prDepths(largestDS) {
		var sums = map[string]eval.PR{}
		for _, qi := range queries {
			rel := relevant(qi)
			add := func(name string, ids []int) {
				pr := eval.PrecisionRecall(ids, rel)
				s := sums[name]
				s.Precision += pr.Precision
				s.Recall += pr.Recall
				sums[name] = s
			}
			add(nameSTRG, payloadsSTRG(largest.strg.KNN(nil, qds.Items[qi], k)))
			add(nameMTRA, payloadsMT(largest.ra.KNN(qds.Items[qi], k)))
			add(nameMTSA, payloadsMT(largest.sa.KNN(qds.Items[qi], k)))
		}
		for _, name := range []string{nameSTRG, nameMTRA, nameMTSA} {
			s := sums[name]
			n := float64(len(queries))
			res.PR = append(res.PR, Fig7PRPoint{
				Index:     name,
				K:         k,
				Precision: s.Precision / n,
				Recall:    s.Recall / n,
			})
		}
	}
	return res, nil
}

// prDepths picks retrieval depths spanning under- to over-retrieval of a
// pattern's cluster size, tracing the PR curve.
func prDepths(ds *synth.Dataset) []int {
	per := ds.Len() / ds.NumClusters()
	if per < 1 {
		per = 1
	}
	depths := []int{per / 2, per, 2 * per, 4 * per}
	out := depths[:0]
	for _, d := range depths {
		if d >= 1 {
			out = append(out, d)
		}
	}
	return out
}

func payloadsSTRG(rs []index.Result[int]) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Payload
	}
	return out
}

func payloadsMT(rs []mtree.Result[int]) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Payload
	}
	return out
}

// Render prints the three panels of Figure 7.
func (r *Fig7Result) Render() string {
	a := Table{
		Title:  "Figure 7(a): index building time (ms) and distance evals vs database size",
		Header: []string{"size", nameSTRG + " ms", nameMTRA + " ms", nameMTSA + " ms", nameSTRG + " evals", nameMTRA + " evals", nameMTSA + " evals"},
	}
	sizes := []int{}
	seen := map[int]bool{}
	for _, p := range r.Build {
		if !seen[p.Size] {
			seen[p.Size] = true
			sizes = append(sizes, p.Size)
		}
	}
	buildFor := func(name string, size int) (string, string) {
		for _, p := range r.Build {
			if p.Index == name && p.Size == size {
				return f2(float64(p.BuildTime.Microseconds()) / 1000), fmt.Sprintf("%d", p.BuildEvals)
			}
		}
		return "-", "-"
	}
	for _, size := range sizes {
		row := []string{fmt.Sprintf("%d", size)}
		var evalCells []string
		for _, name := range []string{nameSTRG, nameMTRA, nameMTSA} {
			ms, evals := buildFor(name, size)
			row = append(row, ms)
			evalCells = append(evalCells, evals)
		}
		row = append(row, evalCells...)
		a.Rows = append(a.Rows, row)
	}

	b := Table{
		Title:  "Figure 7(b): mean #distance computations per k-NN query",
		Header: []string{"k", nameSTRG, nameMTRA, nameMTSA},
	}
	knnFor := func(name string, k int) string {
		for _, p := range r.KNN {
			if p.Index == name && p.K == k {
				return f1(p.DistanceEval)
			}
		}
		return "-"
	}
	for k := 5; k <= 30; k += 5 {
		b.Rows = append(b.Rows, []string{
			fmt.Sprintf("%d", k),
			knnFor(nameSTRG, k), knnFor(nameMTRA, k), knnFor(nameMTSA, k),
		})
	}

	c := Table{
		Title:  "Figure 7(c): precision / recall of k-NN results",
		Header: []string{"k", nameSTRG + " P", nameSTRG + " R", nameMTRA + " P", nameMTRA + " R", nameMTSA + " P", nameMTSA + " R"},
	}
	depths := []int{}
	seenD := map[int]bool{}
	for _, p := range r.PR {
		if !seenD[p.K] {
			seenD[p.K] = true
			depths = append(depths, p.K)
		}
	}
	prFor := func(name string, k int) (string, string) {
		for _, p := range r.PR {
			if p.Index == name && p.K == k {
				return f2(p.Precision), f2(p.Recall)
			}
		}
		return "-", "-"
	}
	for _, k := range depths {
		row := []string{fmt.Sprintf("%d", k)}
		for _, name := range []string{nameSTRG, nameMTRA, nameMTSA} {
			p, rec := prFor(name, k)
			row = append(row, p, rec)
		}
		c.Rows = append(c.Rows, row)
	}
	return a.Render() + "\n" + b.Render() + "\n" + c.Render()
}
