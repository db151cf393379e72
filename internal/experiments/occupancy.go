package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"strgindex/internal/cluster"
	"strgindex/internal/dist"
	"strgindex/internal/eval"
	"strgindex/internal/index"
	"strgindex/internal/strg"
	"strgindex/internal/synth"
)

// ServedCorpus generates the corpus the end-to-end similarity workload
// serves: n OGs drawn from the 48 synthetic patterns at 10% noise and
// shuffled, so ingest order carries no pattern structure, plus nq query
// trajectories drawn the same way under an independent seed. It is the
// recipe of the benchmark harness's corpus generator, so at the same seed
// it yields the same OGs in the same order.
func ServedCorpus(seed int64, n, nq int) ([]*strg.OG, []dist.Sequence, error) {
	draw := func(salt int64, n int) ([]dist.Sequence, []string, error) {
		s := seed*1_000_003 + salt
		ds, err := synth.Generate(synth.Config{PerPattern: (n + 47) / 48, NoisePct: 0.10, Seed: s})
		if err != nil {
			return nil, nil, err
		}
		perm := rand.New(rand.NewSource(s + 1)).Perm(ds.Len())[:n]
		seqs, labels := make([]dist.Sequence, n), make([]string, n)
		for i, j := range perm {
			seqs[i], labels[i] = ds.Items[j], ds.Patterns[ds.Labels[j]].Name
		}
		return seqs, labels, nil
	}
	seqs, labels, err := draw(0x5eed0001, n)
	if err != nil {
		return nil, nil, err
	}
	queries, _, err := draw(0x5eed0002, nq)
	if err != nil {
		return nil, nil, err
	}
	ogs := make([]*strg.OG, n)
	for i := range seqs {
		ogs[i] = synth.AsOG(i, seqs[i], labels[i])
	}
	return ogs, queries, nil
}

// ServedBatchEnd returns where the commit that starts at OG lo ends when
// the served corpus of n OGs is bulk-loaded the way the harness loads it:
// 256 OGs first, then 2 000 at a time.
func ServedBatchEnd(lo, n int) int {
	hi := lo + 2000
	if lo == 0 {
		hi = 256
	}
	return min(hi, n)
}

// ServedSearch is the per-query cost and quality of Algorithm 3 on one
// tree over the served corpus.
type ServedSearch struct {
	// Evals and Records are per-query means: distance evaluations
	// (centroid descent plus leaf refinements, dist.TotalEvals) and leaf
	// records that entered the cascade.
	Evals, Records float64
	// Recall is the mean recall@k of KNN against KNNExact.
	Recall float64
}

// MeasureServedSearch runs every query through KNN and KNNExact at k and
// averages Algorithm 3's cost and recall, comparing answers by id. It
// reads the process-wide evaluation counter, so nothing else may evaluate
// distances meanwhile.
func MeasureServedSearch[P any](tr *index.Tree[P], queries []dist.Sequence, k int, id func(P) int) (ServedSearch, error) {
	var out ServedSearch
	ctx := context.Background()
	for _, q := range queries {
		e0 := dist.TotalEvals()
		approx, st, err := tr.KNNStatsCtx(ctx, nil, q, k)
		if err != nil {
			return out, err
		}
		out.Evals += float64(dist.TotalEvals() - e0)
		out.Records += float64(st.Records)
		exact, _, err := tr.KNNExactStatsCtx(ctx, nil, q, k)
		if err != nil {
			return out, err
		}
		ids := func(rs []index.Result[P]) []int {
			out := make([]int, len(rs))
			for i, r := range rs {
				out[i] = id(r.Payload)
			}
			return out
		}
		out.Recall += eval.RecallAtK(ids(approx), ids(exact), k)
	}
	n := float64(len(queries))
	out.Evals, out.Records, out.Recall = out.Evals/n, out.Records/n, out.Recall/n
	return out, nil
}

// OccupancyResult is Section 5.3 measured on the served corpus: whether
// Equation 8 ever asks for more than one cluster there, and what the
// occupancy bound that replaced it buys.
type OccupancyResult struct {
	BIC, XMeans, Bounds Table
}

// occupancyBICKs are the K values of the BIC curve.
var occupancyBICKs = []int{1, 2, 4, 8, 16, 32, 48, 64}

// occupancyBounds are the MaxLeafEntries values swept; 0 stands for no
// bound (one leaf holds the corpus).
var occupancyBounds = []int{64, 128, 256, 512, 0}

// Occupancy runs the three measurements on scale.ServedOGs OGs of the
// served corpus: the BIC curve of an EM fit at each K, X-means from three
// starting K, and Algorithm 3 on trees built under each leaf bound with
// the server's index configuration (bulk-loaded in the harness's
// batches). Evaluation counts are the process-wide counter's, so the
// runs are sequential.
func Occupancy(scale Scale) (*OccupancyResult, error) {
	ogs, queries, err := ServedCorpus(scale.Seed, scale.ServedOGs, scale.ServedQueries)
	if err != nil {
		return nil, fmt.Errorf("experiments: served corpus: %w", err)
	}
	seqs := make([]dist.Sequence, len(ogs))
	for i, og := range ogs {
		seqs[i] = og.Sequence()
	}
	ccfg := cluster.Config{MaxIter: scale.EMMaxIter, Seed: scale.Seed, Concurrency: 1}
	res := &OccupancyResult{
		BIC: Table{
			Title:  fmt.Sprintf("Section 5.3 on the served corpus: BIC (Eq. 8) of an EM fit at K (%d OGs, 48 patterns)", len(seqs)),
			Header: []string{"K", "BIC", "log-likelihood", "fit evals"},
		},
		XMeans: Table{
			Title:  "X-means (BIC-gated binary splits) from kMin, kMax 64",
			Header: []string{"kMin", "chosen K", "fit evals"},
		},
		Bounds: Table{
			Title:  fmt.Sprintf("Occupancy rule: leaf bound sweep, server index config, Algorithm 3 at k=10 over %d queries", len(queries)),
			Header: []string{"bound", "clusters", "build evals", "evals/query", "records/query", "recall@10"},
		},
	}
	for _, k := range occupancyBICKs {
		if k > len(seqs)/3 {
			break
		}
		c := ccfg
		c.K = k
		e0 := dist.TotalEvals()
		fit, err := cluster.EM(seqs, c)
		if err != nil {
			return nil, fmt.Errorf("experiments: EM at K=%d: %w", k, err)
		}
		res.BIC.Rows = append(res.BIC.Rows, []string{
			fmt.Sprintf("%d", k), f1(cluster.BIC(fit, len(seqs))), f1(fit.LogLikelihood),
			fmt.Sprintf("%d", dist.TotalEvals()-e0),
		})
	}
	for _, kMin := range []int{1, 4, 8} {
		e0 := dist.TotalEvals()
		fit, err := cluster.XMeans(seqs, kMin, min(64, len(seqs)/3), ccfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: X-means from %d: %w", kMin, err)
		}
		res.XMeans.Rows = append(res.XMeans.Rows, []string{
			fmt.Sprintf("%d", kMin), fmt.Sprintf("%d", fit.K), fmt.Sprintf("%d", dist.TotalEvals()-e0),
		})
	}
	for _, bound := range occupancyBounds {
		name := fmt.Sprintf("%d", bound)
		if bound == 0 {
			name, bound = "none", len(seqs)
		}
		tr := index.New[int](index.Config{MaxLeafEntries: bound, Concurrency: 1})
		e0 := dist.TotalEvals()
		for lo := 0; lo < len(seqs); {
			hi := ServedBatchEnd(lo, len(seqs))
			items := make([]index.Item[int], hi-lo)
			for i := range items {
				items[i] = index.Item[int]{Seq: seqs[lo+i], Payload: lo + i}
			}
			if err := tr.AddSegment(nil, items); err != nil {
				return nil, err
			}
			lo = hi
		}
		build := dist.TotalEvals() - e0
		m, err := MeasureServedSearch(tr, queries, 10, func(p int) int { return p })
		if err != nil {
			return nil, err
		}
		res.Bounds.Rows = append(res.Bounds.Rows, []string{
			name, fmt.Sprintf("%d", tr.NumClusters()), fmt.Sprintf("%d", build),
			f1(m.Evals), f1(m.Records), f2(m.Recall),
		})
	}
	return res, nil
}

// Render prints the three tables.
func (r *OccupancyResult) Render() string {
	return r.BIC.Render() + "\n" + r.XMeans.Render() + "\n" + r.Bounds.Render()
}
