// Live: streaming surveillance. Frames arrive one at a time; the online
// STRG builder emits finished Object Graphs while the camera keeps
// rolling, and motion predicates fire alerts — "someone crossed the
// restricted zone heading east" — without waiting for the recording to
// end. Finally a multi-location recording is shot-parsed and ingested in
// one call.
//
//	go run ./examples/live
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"strgindex/internal/core"
	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/query"
	"strgindex/internal/shot"
	"strgindex/internal/strg"
	"strgindex/internal/video"
)

func person(shirt graph.Color) []video.PartSpec {
	return []video.PartSpec{
		{Offset: geom.Vec(0, -16), Size: 100, Color: graph.Color{R: 0.8, G: 0.65, B: 0.5}},
		{Offset: geom.Vec(0, 0), Size: 350, Color: shirt},
		{Offset: geom.Vec(0, 17), Size: 250, Color: graph.Color{R: 0.25, G: 0.3, B: 0.45}},
	}
}

func main() {
	// --- Part 1: streaming ingest with live alerts -------------------
	seg, err := video.Generate(video.SceneConfig{
		Name: "door-cam", Width: 320, Height: 240, FPS: 12, Frames: 48,
		BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8, Seed: 21,
		Objects: []video.ObjectSpec{
			{ // crosses the restricted zone early, then leaves
				Label: "intruder", Parts: person(graph.Color{R: 0.9, G: 0.1, B: 0.1}),
				Path:  []geom.Point{geom.Pt(16, 120), geom.Pt(304, 120)},
				Start: 0, End: 20,
			},
			{ // wanders along the wall, never enters the zone
				Label: "guard", Parts: person(graph.Color{R: 0.1, G: 0.3, B: 0.9}),
				Path:  []geom.Point{geom.Pt(40, 220), geom.Pt(280, 220)},
				Start: 8, End: 46,
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	restricted := geom.Rect{Min: geom.Pt(140, 80), Max: geom.Pt(200, 160)}
	alert := query.And(
		query.PassesThrough(restricted),
		query.Eastbound(0.5),
		query.SpeedBetween(3, math.Inf(1)),
	)

	builder := strg.NewOnlineBuilder(strg.DefaultConfig())
	fmt.Println("streaming door-cam frames:")
	for _, frame := range seg.Frames {
		for _, og := range builder.AddFrame(frame) {
			report(og, alert)
		}
	}
	for _, og := range builder.Flush() {
		report(og, alert)
	}

	// --- Part 2: shot-parse a multi-location recording ---------------
	lobby, err := video.Generate(video.SceneConfig{
		Name: "rec", Width: 320, Height: 240, FPS: 12, Frames: 20,
		BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8, Seed: 22,
		Objects: []video.ObjectSpec{{
			Label: "visitor", Parts: person(graph.Color{R: 0.2, G: 0.8, B: 0.2}),
			Path: []geom.Point{geom.Pt(20, 80), geom.Pt(300, 80)}, Start: 0, End: 20,
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	garage, err := video.Generate(video.SceneConfig{
		Name: "rec", Width: 320, Height: 240, FPS: 12, Frames: 20,
		BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8,
		BackgroundShade: 0.35, Seed: 23,
		Objects: []video.ObjectSpec{{
			Label: "car", Parts: person(graph.Color{R: 0.7, G: 0.7, B: 0.1}),
			Path: []geom.Point{geom.Pt(300, 170), geom.Pt(20, 170)}, Start: 0, End: 20,
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	movie, err := video.Concat("evening", lobby, garage)
	if err != nil {
		log.Fatal(err)
	}

	db := core.Open(core.DefaultConfig())
	shots, err := db.IngestVideo("evening", movie, shot.Config{})
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("\nshot-parsed recording: %d shots, %d backgrounds, %d OGs indexed\n",
		shots, st.Roots, st.OGs)
	res, err := db.QueryComposedCtx(context.Background(), &query.Query{
		Where: query.HeadingNode{Dir: "west", Angle: math.Pi, Tol: 0.5},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Matches {
		fmt.Printf("westbound object in %s (%s)\n", m.Record.Clip, m.Record.Label)
	}
}

func report(og *strg.OG, alert query.Predicate) {
	status := "ok"
	if alert(og) {
		status = "ALERT: crossed restricted zone"
	}
	fmt.Printf("  finalized %-10s frames %2d..%2d  speed %4.1f px/f  %s\n",
		og.Label, og.StartFrame(), og.EndFrame(), query.MeanSpeed(og), status)
}
