package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/index"
	"strgindex/internal/query"
)

// composedDB ingests one deterministic lab stream (the same corpus the
// predicate tests use) into a database with the trajectory index on.
func composedDB(t *testing.T, mut func(*Config)) *VideoDB {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	db := Open(cfg)
	if err := db.IngestStream(miniStream(t, 14, 31)); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryComposedMatchesLegacySelect: for every where-tree shape, the
// planner-executed query must return exactly what a linear scan through
// the equivalent closure predicate returns — same records, same ingest
// order. The planner only changes how much work is done, never the answer.
func TestQueryComposedMatchesLegacySelect(t *testing.T) {
	db := composedDB(t, nil)
	if err := db.CheckSpatialIndex(); err != nil {
		t.Fatal(err)
	}
	center := geom.Rect{Min: geom.Pt(140, 0), Max: geom.Pt(180, 240)}
	corner := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(60, 60)}
	cases := []struct {
		name   string
		where  query.Node
		legacy query.Predicate
	}{
		{"passes", query.SpatialNode{Kind: query.SpatialPasses, Rect: center},
			query.PassesThrough(center)},
		{"starts", query.SpatialNode{Kind: query.SpatialStarts, Rect: corner},
			query.StartsIn(corner)},
		{"ends", query.SpatialNode{Kind: query.SpatialEnds, Rect: corner},
			query.EndsIn(corner)},
		{"within", query.WithinNode{Rect: center, From: 0, To: 40},
			query.WithinDuring(center, 0, 40)},
		{"during", query.DuringNode{From: 10, To: 40},
			query.During(10, 40)},
		{"speed", query.SpeedNode{Lo: 2, Hi: math.Inf(1)},
			query.SpeedBetween(2, math.Inf(1))},
		{"u-turn", query.UTurnNode{MinTurn: math.Pi * 0.8},
			query.TurnsBy(math.Pi * 0.8)},
		{"not", query.NotNode{Child: query.SpatialNode{Kind: query.SpatialPasses, Rect: center}},
			query.Not(query.PassesThrough(center))},
		{"composed", query.AndNode{Children: []query.Node{
			query.SpatialNode{Kind: query.SpatialPasses, Rect: center},
			query.OrNode{Children: []query.Node{
				query.HeadingNode{Dir: "east", Angle: 0, Tol: 0.4},
				query.HeadingNode{Dir: "west", Angle: math.Pi, Tol: 0.4},
			}},
		}}, query.And(
			query.PassesThrough(center),
			query.Or(query.Eastbound(0.4), query.Westbound(0.4)),
		)},
	}
	for _, c := range cases {
		res := composed(t, db, &query.Query{Where: c.where})
		want := scanSelect(db, c.legacy)
		if !reflect.DeepEqual(res.Matches, want) {
			t.Errorf("%s (%s plan): %d matches, predicate scan %d",
				c.name, res.Plan.Strategy, len(res.Matches), len(want))
		}
		if res.Total != len(want) || res.Truncated {
			t.Errorf("%s: total %d truncated %v, want %d false",
				c.name, res.Total, res.Truncated, len(want))
		}
	}
}

// TestQueryComposedPrunesCandidates is the fix for the select full-scan:
// a selective spatial query must route through the trajectory R-tree and
// hand the residual filter strictly fewer candidates than a full scan
// would examine — while still returning the full scan's exact answer.
func TestQueryComposedPrunesCandidates(t *testing.T) {
	db := composedDB(t, nil)
	scanDB := composedDB(t, func(c *Config) { c.DisableTrajIndex = true })

	q := &query.Query{Where: query.SpatialNode{
		Kind: query.SpatialPasses,
		Rect: geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(25, 25)},
	}}
	res := composed(t, db, q)
	if res.Plan.Strategy != query.StrategyRTree {
		t.Fatalf("strategy = %s (sel=%g scan=%g rtree=%g), want rtree",
			res.Plan.Strategy, res.Plan.EstSelectivity, res.Plan.CostScan, res.Plan.CostRTree)
	}
	total := db.Stats().OGs
	var filterIn = -1
	for _, st := range res.Stages {
		if st.Name == "filter" {
			filterIn = st.In
		}
	}
	if filterIn < 0 {
		t.Fatalf("no filter stage in %v", res.Stages)
	}
	if filterIn >= total {
		t.Errorf("filter examined %d candidates, no better than scanning all %d OGs", filterIn, total)
	}

	scanRes := composed(t, scanDB, q)
	if scanRes.Plan.Strategy != query.StrategyScan {
		t.Fatalf("DisableTrajIndex plan = %s, want scan", scanRes.Plan.Strategy)
	}
	if !reflect.DeepEqual(res.Matches, scanRes.Matches) {
		t.Errorf("pruned plan returned %d matches, full scan %d — answers must not depend on the index",
			len(res.Matches), len(scanRes.Matches))
	}
}

// TestQueryComposedPureSimilarByteIdentity: a query with no where tree
// must route to the STRG-Index and produce byte-identical matches AND
// byte-identical search accounting to the index's own search methods.
func TestQueryComposedPureSimilarByteIdentity(t *testing.T) {
	db := composedDB(t, nil)
	traj := dist.Sequence{{16, 120}, {46, 120}, {76, 120}, {106, 120}}
	cases := []struct {
		name string
		sim  query.SimilarClause
	}{
		{"knn", query.SimilarClause{Trajectory: traj, K: 5}},
		{"knn-exact", query.SimilarClause{Trajectory: traj, K: 5, Exact: true}},
		{"range", query.SimilarClause{Trajectory: traj, Radius: 950}},
	}
	for _, c := range cases {
		sim := c.sim
		res := composed(t, db, &query.Query{Similar: &sim})
		if res.Plan.Strategy != query.StrategyIndex {
			t.Fatalf("%s: strategy = %s, want index", c.name, res.Plan.Strategy)
		}
		var rs []index.Result[ClipRecord]
		var wantStats index.SearchStats
		var err error
		switch idx := db.IndexSharded(); {
		case sim.Radius > 0:
			rs, wantStats, err = idx.RangeStatsCtx(context.Background(), nil, traj, sim.Radius)
		case sim.Exact:
			rs, wantStats, err = idx.KNNExactStatsCtx(context.Background(), nil, traj, sim.K)
		default:
			rs, wantStats, err = idx.KNNStatsCtx(context.Background(), nil, traj, sim.K)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := toMatches(rs)
		if !reflect.DeepEqual(res.Matches, want) {
			t.Errorf("%s: composed matches differ from the index search", c.name)
		}
		if res.Search != wantStats {
			t.Errorf("%s: SearchStats %+v, index search %+v", c.name, res.Search, wantStats)
		}
	}
}

// TestQueryComposedLimitOnIndexPath: the limit truncates index-routed
// answers after Total is counted, exactly like planner-executed ones.
func TestQueryComposedLimitOnIndexPath(t *testing.T) {
	db := composedDB(t, nil)
	traj := dist.Sequence{{16, 120}, {106, 120}}
	res := composed(t, db, &query.Query{
		Similar: &query.SimilarClause{Trajectory: traj, K: 5},
		Limit:   2,
	})
	if len(res.Matches) != 2 || res.Total != 5 || !res.Truncated {
		t.Errorf("got %d/%d truncated=%v, want 2/5 true", len(res.Matches), res.Total, res.Truncated)
	}
}

// TestQueryComposedSurvivesSaveLoad: a Save/Load round trip must keep
// predicate queries working — the snapshot carries the retained OGs and
// clip records, and Load rebuilds the trajectory R-tree from them, so a
// loaded database answers (and plans) exactly like the one that was
// saved. Regression test: the image used to drop ogs/records, so every
// where query against a loaded database silently scanned nothing.
func TestQueryComposedSurvivesSaveLoad(t *testing.T) {
	db := composedDB(t, nil)
	rect := geom.Rect{Min: geom.Pt(140, 0), Max: geom.Pt(180, 240)}
	q := &query.Query{Where: query.SpatialNode{Kind: query.SpatialPasses, Rect: rect}}
	want := composed(t, db, q)
	if len(want.Matches) == 0 {
		t.Fatal("seed query matched nothing; test rect misses the corpus")
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := Load(&buf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CheckSpatialIndex(); err != nil {
		t.Fatalf("spatial index after load: %v", err)
	}
	got := composed(t, re, q)
	if got.Plan.Strategy != want.Plan.Strategy {
		t.Errorf("plan after load = %s, before = %s", got.Plan.Strategy, want.Plan.Strategy)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Errorf("loaded db returned %d matches, original %d", len(got.Matches), len(want.Matches))
	}
}

// TestCheckSpatialIndexDetectsCorruption: the auditor must actually
// catch a phantom entry, not just bless healthy trees.
func TestCheckSpatialIndexDetectsCorruption(t *testing.T) {
	db := composedDB(t, nil)
	if err := db.CheckSpatialIndex(); err != nil {
		t.Fatalf("healthy index rejected: %v", err)
	}
	db.traj.insert(len(db.ogs)+7, db.ogs[0])
	if err := db.CheckSpatialIndex(); err == nil {
		t.Error("phantom OG entry went undetected")
	}
}
