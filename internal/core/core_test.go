package core

import (
	"reflect"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/query"
	"strgindex/internal/video"
)

// miniStream generates a small lab-style stream for fast end-to-end tests.
func miniStream(t *testing.T, n int, seed int64) *video.Stream {
	t.Helper()
	p := video.StreamProfile{
		Name: "Mini", Kind: video.KindLab,
		NumObjects: n, SegmentFrames: 16, ObjectsPerSegment: 2,
	}
	s, err := video.GenerateStream(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIngestAndStats(t *testing.T) {
	db := Open(DefaultConfig())
	stream := miniStream(t, 12, 1)
	if err := db.IngestStream(stream); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Segments != len(stream.Segments) {
		t.Errorf("Segments = %d, want %d", st.Segments, len(stream.Segments))
	}
	// Tracking may fragment an object under jitter, but the OG count must
	// be in the right ballpark: at least one OG per generated object's
	// segment and not wildly more.
	if st.OGs < 8 || st.OGs > 3*12 {
		t.Errorf("OGs = %d, want within [8, 36] for 12 objects", st.OGs)
	}
	if st.Roots < 1 {
		t.Error("no root records")
	}
	if st.Clusters < 1 {
		t.Error("no cluster records")
	}
	// The headline size claim: index is far smaller than the raw STRG and
	// smaller than the per-frame-background STRG form (Equation 9 vs 10).
	if st.IndexBytes <= 0 || st.STRGBytes <= 0 || st.RawSTRGBytes <= 0 {
		t.Fatalf("degenerate sizes: %+v", st)
	}
	if st.IndexBytes*5 > st.STRGBytes {
		t.Errorf("index %d bytes not well below STRG %d bytes", st.IndexBytes, st.STRGBytes)
	}
	if err := db.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryTrajectory(t *testing.T) {
	db := Open(DefaultConfig())
	if err := db.IngestStream(miniStream(t, 16, 2)); err != nil {
		t.Fatal(err)
	}
	// Query with an eastbound mid-field trajectory.
	q := make(dist.Sequence, 12)
	for i := range q {
		x := 16 + float64(i)*(288.0/11.0)
		q[i] = dist.Vec{x, 120}
	}
	got := knn(t, db, q, 3)
	if len(got) == 0 {
		t.Fatal("no matches")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			t.Error("matches not sorted by distance")
		}
	}
	if got[0].Record.Clip.Stream != "Mini" {
		t.Errorf("clip stream = %q, want Mini", got[0].Record.Clip.Stream)
	}
	exact := knnExact(t, db, q, 3)
	if len(exact) != 3 {
		t.Fatalf("exact returned %d", len(exact))
	}
	if exact[0].Distance > got[0].Distance+1e-9 {
		t.Error("exact nearest worse than approximate nearest")
	}
}

func TestQueryRange(t *testing.T) {
	db := Open(DefaultConfig())
	if err := db.IngestStream(miniStream(t, 10, 3)); err != nil {
		t.Fatal(err)
	}
	all := within(t, db, dist.Sequence{{160, 120}}, 1e9)
	if len(all) != db.Stats().OGs {
		t.Errorf("huge-radius range returned %d, want all %d", len(all), db.Stats().OGs)
	}
	none := within(t, db, dist.Sequence{{160, 120}}, 1e-6)
	if len(none) != 0 {
		t.Errorf("tiny-radius range returned %d", len(none))
	}
}

func TestQuerySegment(t *testing.T) {
	db := Open(DefaultConfig())
	if err := db.IngestStream(miniStream(t, 12, 4)); err != nil {
		t.Fatal(err)
	}
	// Build a fresh query segment with one eastbound walker.
	cfg := video.SceneConfig{
		Name: "query", Width: 320, Height: 240, FPS: 12, Frames: 16,
		BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8, Seed: 99,
		Objects: []video.ObjectSpec{{
			Label: "q",
			Parts: []video.PartSpec{
				{Offset: geom.Vec(0, -16), Size: 100, Color: graph.Color{R: 0.85, G: 0.68, B: 0.55}},
				{Offset: geom.Vec(0, 0), Size: 350, Color: graph.Color{R: 0.5, G: 0.25, B: 0.5}},
				{Offset: geom.Vec(0, 17), Size: 250, Color: graph.Color{R: 0.2, G: 0.22, B: 0.28}},
			},
			Path:  []geom.Point{geom.Pt(20, 120), geom.Pt(300, 120)},
			Start: 0, End: 16,
		}},
	}
	qseg, err := video.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := db.QuerySegment(qseg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("query segment produced no OGs")
	}
	for _, perOG := range matches {
		if len(perOG) == 0 {
			t.Error("an extracted query OG matched nothing")
		}
	}
}

func TestIngestEmptySegmentFails(t *testing.T) {
	db := Open(DefaultConfig())
	if _, err := db.IngestSegment("x", &video.Segment{}); err == nil {
		t.Error("ingesting empty segment did not error")
	}
}

func TestOpenZeroConfigUsesDefaults(t *testing.T) {
	db := Open(Config{})
	if err := db.IngestStream(miniStream(t, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if db.Stats().OGs == 0 {
		t.Error("zero-config database indexed nothing")
	}
}

func TestQuerySegmentErrors(t *testing.T) {
	db := Open(DefaultConfig())
	if _, err := db.QuerySegment(&video.Segment{}, 3); err == nil {
		t.Error("QuerySegment on empty segment did not error")
	}
}

func TestIngestStreamPropagatesErrors(t *testing.T) {
	db := Open(DefaultConfig())
	bad := &video.Stream{Segments: []*video.Segment{{}}}
	if err := db.IngestStream(bad); err == nil {
		t.Error("IngestStream with empty segment did not error")
	}
}

func TestStatsOnEmptyDatabase(t *testing.T) {
	db := Open(DefaultConfig())
	st := db.Stats()
	if st.OGs != 0 || st.Segments != 0 || st.Roots != 0 {
		t.Errorf("empty stats = %+v", st)
	}
	if got := knn(t, db, dist.Sequence{{1, 1}}, 3); len(got) != 0 {
		t.Errorf("query on empty db = %v", got)
	}
}

// TestDistCacheSizeIgnored documents the contract of the deprecated
// Config.DistCacheSize until the field can go: whatever it is set to, a
// database answers and accounts identically — also on a repeated query,
// where a cache would have shifted work between stats columns.
func TestDistCacheSizeIgnored(t *testing.T) {
	open := func(size int) *VideoDB {
		cfg := DefaultConfig()
		cfg.DistCacheSize = size
		db := Open(cfg)
		if err := db.IngestStream(miniStream(t, 12, 1)); err != nil {
			t.Fatal(err)
		}
		return db
	}
	a, b := open(-1), open(0)
	seq := toSeq([][2]float64{{20, 20}, {60, 60}, {100, 100}})
	for pass := 0; pass < 2; pass++ {
		for _, c := range []query.SimilarClause{
			{Trajectory: seq, K: 5},
			{Trajectory: seq, K: 5, Exact: true},
			{Trajectory: seq, Radius: 150},
		} {
			ra, rb := similar(t, a, c), similar(t, b, c)
			if !reflect.DeepEqual(ra.Matches, rb.Matches) || ra.Search != rb.Search {
				t.Fatalf("pass %d %+v: DistCacheSize -1 answered %+v %+v, 0 answered %+v %+v",
					pass, c, ra.Matches, ra.Search, rb.Matches, rb.Search)
			}
		}
	}
}
