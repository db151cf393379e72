package strgindex

import (
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/experiments"
)

// servedCorpusDB builds the database the end-to-end similarity workload
// serves at seed 1 — 3 000 synthetic OGs bulk-loaded in the harness's
// batches under the server's default index configuration —
// and draws nq query trajectories from the same recipe.
func servedCorpusDB(tb testing.TB, nq int) (*core.VideoDB, []dist.Sequence) {
	tb.Helper()
	ogs, queries, err := experiments.ServedCorpus(1, 3000, nq)
	if err != nil {
		tb.Fatal(err)
	}
	db := core.Open(core.DefaultConfig())
	for lo := 0; lo < len(ogs); {
		hi := experiments.ServedBatchEnd(lo, len(ogs))
		if err := db.IngestTrajectories("corpus", ogs[lo:hi]); err != nil {
			tb.Fatal(err)
		}
		lo = hi
	}
	return db, queries
}

// ogID keys a k-NN answer by its OG for recall.
func ogID(c core.ClipRecord) int { return c.OGID }

// TestServedCorpusClusters: on the served corpus the occupancy rule gives
// Algorithm 3 real clusters to descend. The bound must yield at least 8
// of them, each query must scan at most a fifth of the 1 829 records a
// single-leaf tree scans, and recall@10 against KNNExact must stay at or
// above 0.85 (Figure 7(c) reports 0.89–0.92 for the paper's K = 48).
func TestServedCorpusClusters(t *testing.T) {
	db, queries := servedCorpusDB(t, 120)
	if st := db.Stats(); st.Clusters < 8 {
		t.Fatalf("%d clusters over %d OGs, want at least 8", st.Clusters, st.OGs)
	}
	m, err := experiments.MeasureServedSearch(db.Index(), queries, 10, ogID)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clusters %d: %.1f records, %.1f evals per query, recall@10 %.3f",
		db.Stats().Clusters, m.Records, m.Evals, m.Recall)
	if m.Records > 1829.0/5 {
		t.Errorf("%.1f records per query, want at most %.1f", m.Records, 1829.0/5)
	}
	if m.Recall < 0.85 {
		t.Errorf("recall@10 %.3f over %d queries, want at least 0.85", m.Recall, len(queries))
	}
}
