package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/query"
	"strgindex/internal/strg"
	"strgindex/internal/synth"
)

// walkDB bulk-loads n random-walk OGs — the rank-stage corpus whose size
// the tests vary.
func walkDB(t testing.TB, n int) *VideoDB {
	t.Helper()
	db := Open(DefaultConfig())
	rng := rand.New(rand.NewSource(17))
	ogs := make([]*strg.OG, n)
	for i := range ogs {
		seq := make(dist.Sequence, 6+rng.Intn(10))
		x, y := rng.Float64()*320, rng.Float64()*240
		for j := range seq {
			x += rng.NormFloat64() * 6
			y += rng.NormFloat64() * 6
			seq[j] = dist.Vec{x, y}
		}
		ogs[i] = synth.AsOG(i, seq, fmt.Sprintf("walk-%d", i%4))
	}
	if err := db.IngestTrajectories("cam0", ogs); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkBlocks asserts the stored-block invariant: one block per retained
// OG, holding exactly the float64 bits og.Sequence() builds.
func checkBlocks(t *testing.T, db *VideoDB) {
	t.Helper()
	if len(db.blocks) != len(db.ogs) {
		t.Fatalf("%d blocks for %d OGs", len(db.blocks), len(db.ogs))
	}
	for i, og := range db.ogs {
		want, got := og.Sequence(), db.blocks[i].Sequence()
		if len(got) != len(want) {
			t.Fatalf("OG %d: block holds %d samples, sequence %d", i, len(got), len(want))
		}
		for j := range want {
			for k := range want[j] {
				if math.Float64bits(got[j][k]) != math.Float64bits(want[j][k]) {
					t.Fatalf("OG %d sample %d: block %v, sequence %v", i, j, got[j], want[j])
				}
			}
		}
	}
}

// referenceRank is the rank stage as the per-pair reference kernel
// defines it: dist.EGEDMUB on og.Sequence() for every OG the predicate
// admits, ordered by (distance, ingest ordinal), cut at k or at radius.
func referenceRank(db *VideoDB, pred query.Predicate, c query.SimilarClause) []Match {
	var ms []Match
	for i, og := range db.ogs {
		if !pred(og) {
			continue
		}
		d, _ := dist.EGEDMUB(c.Trajectory, og.Sequence(), nil, math.Inf(1))
		if c.Radius > 0 && d > c.Radius {
			continue
		}
		ms = append(ms, Match{Record: db.records[i], Distance: d})
	}
	sort.SliceStable(ms, func(a, b int) bool { return ms[a].Distance < ms[b].Distance })
	if c.K > 0 && len(ms) > c.K {
		ms = ms[:c.K]
	}
	return ms
}

func sameMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Record != want[i].Record || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			t.Fatalf("%s: rank %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestRankStageMatchesPerPairReference: the composed rank stage streams
// stored blocks through the batched kernel; its answers — records, order
// and distance bits — must be the per-pair reference kernel's, for k-NN
// and radius clauses, on databases built by the segment pipeline, by
// bulk load and by snapshot restore.
func TestRankStageMatchesPerPairReference(t *testing.T) {
	lab := composedDB(t, nil)
	var buf bytes.Buffer
	if err := lab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	center := geom.Rect{Min: geom.Pt(100, 0), Max: geom.Pt(220, 240)}
	wheres := []struct {
		name string
		node query.Node
	}{
		{"all", query.LengthNode{Min: 0}},
		{"passes", query.SpatialNode{Kind: query.SpatialPasses, Rect: center}},
	}
	trajs := []dist.Sequence{
		{{16, 120}, {46, 120}, {76, 120}, {106, 120}},
		{{160, 10}, {160, 120}, {160, 230}},
		{{300, 240}},
	}
	for name, db := range map[string]*VideoDB{"pipeline": lab, "restored": restored, "bulk": walkDB(t, 200)} {
		checkBlocks(t, db)
		for _, w := range wheres {
			pred := query.Compile(w.node)
			for ti, traj := range trajs {
				for _, c := range []query.SimilarClause{
					{Trajectory: traj, K: 1},
					{Trajectory: traj, K: 7},
					{Trajectory: traj, K: 10000},
					{Trajectory: traj, Radius: 400},
					{Trajectory: traj, Radius: 2500},
				} {
					c := c
					label := fmt.Sprintf("%s where=%s traj=%d k=%d r=%g", name, w.name, ti, c.K, c.Radius)
					res := composed(t, db, &query.Query{Where: w.node, Similar: &c})
					if !res.Plan.Rank {
						t.Fatalf("%s: plan %+v has no rank stage", label, res.Plan)
					}
					sameMatches(t, label, res.Matches, referenceRank(db, pred, c))
				}
			}
		}
	}
}

// TestApproxRerankMatchesPerPairReference: the approximate tier's rerank
// runs the same batched kernel over the same stored blocks. Whatever
// candidates a probe width yields, every returned distance must be the
// reference kernel's bits and the order (distance, OGID); with every
// list probed the answer is the reference's global top-k.
func TestApproxRerankMatchesPerPairReference(t *testing.T) {
	db := approxDB(t, nil)
	checkBlocks(t, db)
	nlists := db.vec.ivf.NLists()
	all := query.Compile(nil)
	for ti, traj := range []dist.Sequence{
		{{16, 120}, {46, 120}, {76, 120}, {106, 120}},
		{{160, 10}, {160, 120}, {160, 230}},
	} {
		for nprobe := 1; nprobe <= nlists; nprobe++ {
			label := fmt.Sprintf("traj=%d nprobe=%d", ti, nprobe)
			res := approxKNN(t, db, traj, 7, nprobe)
			checkStatsInvariant(t, res.Search)
			for i, m := range res.Matches {
				want, _ := dist.EGEDMUB(traj, db.ogs[m.Record.OGID].Sequence(), nil, math.Inf(1))
				if math.Float64bits(m.Distance) != math.Float64bits(want) {
					t.Fatalf("%s rank %d: distance %v, reference %v", label, i, m.Distance, want)
				}
				if i > 0 {
					p := res.Matches[i-1]
					if p.Distance > m.Distance || (p.Distance == m.Distance && p.Record.OGID > m.Record.OGID) {
						t.Fatalf("%s: ranks %d,%d out of (distance, OGID) order", label, i-1, i)
					}
				}
			}
			if nprobe == nlists {
				sameMatches(t, label, res.Matches, referenceRank(db, all, query.SimilarClause{Trajectory: traj, K: 7}))
			}
		}
	}
}

// TestRankStageAllocsIndependentOfCandidates: with stored blocks and one
// prepared query the rank stage allocates nothing per candidate — a
// ranked query over 512 admitted OGs allocates exactly what one over 64
// does.
func TestRankStageAllocsIndependentOfCandidates(t *testing.T) {
	q := &query.Query{
		Where:   query.LengthNode{Min: 0},
		Similar: &query.SimilarClause{Trajectory: dist.Sequence{{16, 120}, {46, 120}, {76, 120}, {106, 120}}, K: 10},
	}
	measure := func(n int) float64 {
		db := walkDB(t, n)
		if res := composed(t, db, q); res.Total != 10 || res.Stages[len(res.Stages)-1].In != n {
			t.Fatalf("rank stage saw %d of %d OGs (%+v)", res.Stages[len(res.Stages)-1].In, n, res.Stages)
		}
		return testing.AllocsPerRun(50, func() { composed(t, db, q) })
	}
	small, large := measure(64), measure(512)
	if small != large {
		t.Errorf("%v allocs/query ranking 64 candidates, %v ranking 512", small, large)
	}
	t.Logf("%v allocs/query", small)
}
