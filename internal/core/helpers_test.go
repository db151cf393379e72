package core

import (
	"context"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/index"
	"strgindex/internal/query"
	"strgindex/internal/wal"
)

// querier is the one query entry point, as VideoDB and SharedDB share it.
type querier interface {
	QueryComposedCtx(ctx context.Context, q *query.Query) (*QueryResult, error)
}

// composed runs one declarative query and fails the test on error. Like
// every helper below it must run on the test's own goroutine.
func composed(t testing.TB, db querier, q *query.Query) *QueryResult {
	t.Helper()
	res, err := db.QueryComposedCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("QueryComposedCtx: %v", err)
	}
	return res
}

// search runs a pure-similarity query and returns the error instead of
// failing the test — for reader goroutines, which must not call t.Fatal.
func search(db querier, c query.SimilarClause) ([]Match, index.SearchStats, error) {
	res, err := db.QueryComposedCtx(context.Background(), &query.Query{Similar: &c})
	if err != nil {
		return nil, index.SearchStats{}, err
	}
	return res.Matches, res.Search, nil
}

// similar runs a pure-similarity query (no where tree).
func similar(t testing.TB, db querier, c query.SimilarClause) *QueryResult {
	t.Helper()
	return composed(t, db, &query.Query{Similar: &c})
}

// knn is Algorithm 3's single-cluster k-NN.
func knn(t testing.TB, db querier, seq dist.Sequence, k int) []Match {
	t.Helper()
	return similar(t, db, query.SimilarClause{Trajectory: seq, K: k}).Matches
}

// knnExact is the exact all-cluster k-NN.
func knnExact(t testing.TB, db querier, seq dist.Sequence, k int) []Match {
	t.Helper()
	return similar(t, db, query.SimilarClause{Trajectory: seq, K: k, Exact: true}).Matches
}

// within is the range query: every OG within radius of seq.
func within(t testing.TB, db querier, seq dist.Sequence, radius float64) []Match {
	t.Helper()
	return similar(t, db, query.SimilarClause{Trajectory: seq, Radius: radius}).Matches
}

// approxKNN is a k-NN through the approximate tier; nprobe 0 selects the
// database default.
func approxKNN(t testing.TB, db querier, seq dist.Sequence, k, nprobe int) *QueryResult {
	t.Helper()
	return similar(t, db, query.SimilarClause{Trajectory: seq, K: k, Mode: query.ModeApprox, NProbe: nprobe})
}

// selectWhere returns the records satisfying a where tree, in ingest order.
func selectWhere(t testing.TB, db querier, where query.Node) []Match {
	t.Helper()
	return composed(t, db, &query.Query{Where: where}).Matches
}

// scanSelect is the predicate reference model: a linear scan of the
// retained OGs through a closure predicate, in ingest order.
func scanSelect(db *VideoDB, p query.Predicate) []Match {
	var out []Match
	for i, og := range db.ogs {
		if p(og) {
			out = append(out, Match{Record: db.records[i]})
		}
	}
	return out
}

// walPath is the path of log seq in data directory dir's log chain.
func walPath(dir string, seq uint64) string { return wal.NewChain(nil, dir, walPrefix).Path(seq) }
