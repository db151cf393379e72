package core

import (
	"math"
	"testing"

	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/query"
	"strgindex/internal/shot"
	"strgindex/internal/video"
)

func TestSelectByMotionPredicates(t *testing.T) {
	db := Open(DefaultConfig())
	stream := miniStream(t, 14, 31)
	if err := db.IngestStream(stream); err != nil {
		t.Fatal(err)
	}
	if len(db.ogs) != db.Stats().OGs {
		t.Fatalf("retained %d OGs, stats say %d", len(db.ogs), db.Stats().OGs)
	}

	all := selectWhere(t, db, query.AndNode{})
	if len(all) != db.Stats().OGs {
		t.Fatalf("select(all) = %d, want %d", len(all), db.Stats().OGs)
	}

	// Eastbound selection must agree with the ground-truth classes.
	eastbound := query.HeadingNode{Dir: "east", Angle: 0, Tol: 0.4}
	westbound := query.HeadingNode{Dir: "west", Angle: math.Pi, Tol: 0.4}
	east := selectWhere(t, db, eastbound)
	for _, m := range east {
		class := stream.Classes[m.Record.Label]
		if class != "horizontal-east" && class != "uturn-east" {
			// uturn-east's net direction is near-east only in its first
			// half; with a 0.4 tolerance it should not slip in, but a
			// merged OG can. Accept only exact matches here.
			t.Errorf("eastbound select returned class %q", class)
		}
	}

	// Everything is moving; nothing should be stationary.
	moving := query.SpeedNode{Lo: 1, Hi: math.Inf(1)}
	if still := selectWhere(t, db, query.NotNode{Child: moving}); len(still) != 0 {
		t.Errorf("Stationary matched %d moving objects", len(still))
	}

	// Region + direction composition: things crossing the center region.
	center := geom.Rect{Min: geom.Pt(140, 0), Max: geom.Pt(180, 240)}
	crossers := selectWhere(t, db, query.AndNode{Children: []query.Node{
		query.SpatialNode{Kind: query.SpatialPasses, Rect: center},
		query.OrNode{Children: []query.Node{eastbound, westbound}},
	}})
	for _, m := range crossers {
		class := stream.Classes[m.Record.Label]
		switch class {
		case "horizontal-east", "horizontal-west", "uturn-east", "diagonal-se", "diagonal-nw":
		default:
			t.Errorf("center-crossing horizontal select returned %q", class)
		}
	}

	// U-turn detection against ground truth.
	uturns := selectWhere(t, db, query.UTurnNode{MinTurn: query.DefaultUTurn})
	for _, m := range uturns {
		class := stream.Classes[m.Record.Label]
		if class != "uturn-east" && class != "uturn-south" {
			t.Errorf("u_turn returned class %q", class)
		}
	}
}

func TestIngestVideoSplitsShots(t *testing.T) {
	mk := func(shade float64, seed int64, label string, y float64) *video.Segment {
		seg, err := video.Generate(video.SceneConfig{
			Name: "scene", Width: 320, Height: 240, FPS: 12, Frames: 16,
			BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8,
			BackgroundShade: shade, Seed: seed,
			Objects: []video.ObjectSpec{{
				Label: label,
				Parts: []video.PartSpec{{Size: 400, Color: graph.Color{R: 0.9, G: 0.1, B: 0.1}}},
				Path:  []geom.Point{geom.Pt(10, y), geom.Pt(310, y)},
				Start: 0, End: 16,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	movie, err := video.Concat("movie", mk(0, 1, "a", 80), mk(0.3, 2, "b", 160))
	if err != nil {
		t.Fatal(err)
	}
	db := Open(DefaultConfig())
	shots, err := db.IngestVideo("cam", movie, shot.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if shots != 2 {
		t.Fatalf("shots = %d, want 2", shots)
	}
	st := db.Stats()
	if st.Segments != 2 {
		t.Errorf("segments = %d, want 2", st.Segments)
	}
	if st.Roots != 2 {
		t.Errorf("roots = %d, want 2 (distinct backgrounds)", st.Roots)
	}
	if st.OGs != 2 {
		t.Errorf("OGs = %d, want 2", st.OGs)
	}
}
