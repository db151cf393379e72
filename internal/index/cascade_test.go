package index

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/obs"
)

// buildCascadeTree builds a deterministic tree, letting the caller adjust
// the cascade knobs before construction. The bound sits above every leaf
// the five EM clusters of these workloads hold, so the cascade is measured
// on the same leaves with and without it.
func buildCascadeTree(t *testing.T, seqs []dist.Sequence, workers int, mut func(*Config)) *Tree[int] {
	t.Helper()
	cfg := Config{NumClusters: 5, Seed: 11, MaxLeafEntries: 256, Concurrency: workers}
	if mut != nil {
		mut(&cfg)
	}
	tr := New[int](cfg)
	items := make([]Item[int], len(seqs))
	for i, s := range seqs {
		items[i] = Item[int]{Seq: s, Payload: i}
	}
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCascadeOnOffByteIdentical is the tentpole's core acceptance check:
// with the filter-and-refine cascade disabled (every candidate pays the
// exact metric) and enabled (lower bounds + early abandoning + pruning),
// every search mode returns byte-identical results at every worker count.
func TestCascadeOnOffByteIdentical(t *testing.T) {
	seqs := detSequences(150, 71)
	queries := detSequences(12, 72)
	ref := buildCascadeTree(t, seqs, 1, func(c *Config) { c.DisableCascade = true })
	for _, workers := range []int{0, 1, 2, 4} {
		tr := buildCascadeTree(t, seqs, workers, nil)
		for qi, q := range queries {
			for _, k := range []int{1, 5, 20} {
				sameResults(t, labelf("workers=%d q=%d k=%d KNN", workers, qi, k),
					tr.KNN(nil, q, k), ref.KNN(nil, q, k))
				sameResults(t, labelf("workers=%d q=%d k=%d KNNExact", workers, qi, k),
					tr.KNNExact(nil, q, k), ref.KNNExact(nil, q, k))
			}
			for _, radius := range []float64{30, 150, 500} {
				sameResults(t, labelf("workers=%d q=%d r=%v Range", workers, qi, radius),
					tr.Range(nil, q, radius), ref.Range(nil, q, radius))
			}
		}
	}
}

// TestSearchStatsAccounting: every record entering the cascade is disposed
// of by exactly one stage.
func TestSearchStatsAccounting(t *testing.T) {
	seqs := detSequences(150, 75)
	tr := buildCascadeTree(t, seqs, 1, nil)
	q := detSequences(1, 76)[0]
	for name, st := range map[string]SearchStats{
		"knn":   statsOf(t, tr, q, false),
		"exact": statsOf(t, tr, q, true),
	} {
		if st.Records == 0 {
			t.Fatalf("%s: no records entered the cascade", name)
		}
		disposed := st.LBQuickPruned + st.LBEnvelopePruned + st.DPEvaluated + st.DPAbandoned
		if disposed != st.Records {
			t.Fatalf("%s: dispositions %d != records %d (%+v)", name, disposed, st.Records, st)
		}
		if st.DPEvaluated == 0 {
			t.Fatalf("%s: nothing fully evaluated — the result set came from nowhere (%+v)", name, st)
		}
	}
}

func statsOf(t *testing.T, tr *Tree[int], q dist.Sequence, exact bool) SearchStats {
	t.Helper()
	var st SearchStats
	var err error
	if exact {
		_, st, err = tr.KNNExactStatsCtx(context.Background(), nil, q, 5)
	} else {
		_, st, err = tr.KNNStatsCtx(context.Background(), nil, q, 5)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCascadeReducesDPCells asserts the acceptance bar directly: on a
// workload of clustered trajectories, the cascade evaluates less than half
// the DP cells of the exhaustive exact scan.
func TestCascadeReducesDPCells(t *testing.T) {
	seqs := detSequences(250, 77)
	queries := detSequences(10, 78)
	exact := buildCascadeTree(t, seqs, 1, func(c *Config) { c.DisableCascade = true })
	casc := buildCascadeTree(t, seqs, 1, nil)

	run := func(tr *Tree[int]) int64 {
		before := dist.DPCells()
		for _, q := range queries {
			tr.KNNExact(nil, q, 5)
		}
		return dist.DPCells() - before
	}
	exactCells := run(exact)
	cascCells := run(casc)
	if exactCells == 0 {
		t.Fatal("exact path recorded no DP cells")
	}
	if cascCells*2 > exactCells {
		t.Fatalf("cascade evaluated %d DP cells, exact %d — less than the required 2x reduction",
			cascCells, exactCells)
	}
	t.Logf("DP cells: exact=%d cascade=%d (%.1fx reduction)",
		exactCells, cascCells, float64(exactCells)/float64(cascCells))
}

// lbPrunedFamilyTotal sums every series of strg_dist_lb_pruned_total plus
// strg_dist_lb_passed_total as /metrics exposes them — whatever stage
// labels exist, not a list this test would have to keep in step.
func lbPrunedFamilyTotal(t *testing.T) int64 {
	t.Helper()
	var buf bytes.Buffer
	obs.Default.WritePrometheus(&buf)
	var total int64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "strg_dist_lb_pruned_total{") && !strings.HasPrefix(line, "strg_dist_lb_passed_total ") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparsable metric line %q: %v", line, err)
		}
		total += int64(v)
	}
	return total
}

// TestLBPrunedFamilyCountsEachRecordOnce: over a few searches on the
// envelope-separable ring workload, the lower-bound family summed over
// every stage plus lb_passed advances by exactly the records that entered
// the cascade — no record is counted under two stages.
func TestLBPrunedFamilyCountsEachRecordOnce(t *testing.T) {
	tr := buildCascadeTree(t, ringSequences(120, 101), 1, func(c *Config) {
		c.NumClusters, c.MaxLeafEntries = 1, 500
	})
	ctx := context.Background()
	before, records, envelope := lbPrunedFamilyTotal(t), 0, 0
	for _, q := range ringSequences(8, 102) {
		for _, search := range []func() ([]Result[int], SearchStats, error){
			func() ([]Result[int], SearchStats, error) { return tr.KNNStatsCtx(ctx, nil, q, 3) },
			func() ([]Result[int], SearchStats, error) { return tr.KNNExactStatsCtx(ctx, nil, q, 3) },
			func() ([]Result[int], SearchStats, error) { return tr.RangeStatsCtx(ctx, nil, q, 40) },
		} {
			_, st, err := search()
			if err != nil {
				t.Fatal(err)
			}
			records += st.Records
			envelope += st.LBEnvelopePruned
		}
	}
	if envelope == 0 {
		t.Fatal("ring workload exercised no envelope pruning")
	}
	if got := lbPrunedFamilyTotal(t) - before; got != int64(records) {
		t.Fatalf("lb_pruned (all stages) + lb_passed advanced by %d over searches that cascaded %d records", got, records)
	}
}

// TestKNNAllocsIndependentOfLeafSize guards the per-query garbage budget
// of the similarity path: the result heap is sized up front and the DP
// arena comes from a pool, so scanning a leaf ten times larger allocates
// as much — to within the arena (a struct and three rows) that the race
// detector's sync.Pool drops at random — and stays under a ceiling a
// little above today's 12 (k-NN) and 21 (exact) allocations per query.
func TestKNNAllocsIndependentOfLeafSize(t *testing.T) {
	ctx := context.Background()
	q := detSequences(1, 91)[0]
	measure := func(n int, exact bool) float64 {
		tr := buildCascadeTree(t, detSequences(n, 90), 1, func(c *Config) {
			c.NumClusters, c.MaxLeafEntries = 1, 2*n
		})
		return testing.AllocsPerRun(100, func() {
			var err error
			if exact {
				_, _, err = tr.KNNExactStatsCtx(ctx, nil, q, 10)
			} else {
				_, _, err = tr.KNNStatsCtx(ctx, nil, q, 10)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		exact   bool
		ceiling float64
	}{{false, 19}, {true, 29}} {
		small, large := measure(40, tc.exact), measure(400, tc.exact)
		if math.Abs(small-large) > 4 || large > tc.ceiling {
			t.Errorf("exact=%v: %v allocs/query over a 40-record leaf, %v over a 400-record one (ceiling %v)",
				tc.exact, small, large, tc.ceiling)
		}
	}
}
