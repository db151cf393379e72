// Live: streaming surveillance. A camera pushes frames into a live feed
// while a standing query watches for "someone crossed the restricted zone
// heading east": the feed tracks each frame as it arrives, commits an
// epoch whenever every tracked object has come to rest, and the alert
// fires as soon as the intruder's epoch commits — while the camera keeps
// rolling. This is the path strg-server serves at /v1/feeds and
// /v1/subscriptions. Finally a multi-location recording is shot-parsed
// and ingested in one call.
//
//	go run ./examples/live
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"strgindex/internal/core"
	"strgindex/internal/feed"
	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/query"
	"strgindex/internal/shot"
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
	// --- Part 1: streaming ingest with a standing alert ---------------
	seg, err := video.Generate(video.SceneConfig{
		Name: "door-cam", Width: 320, Height: 240, FPS: 12, Frames: 48,
		BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8, Seed: 21,
		Objects: []video.ObjectSpec{
			{ // crosses the restricted zone early, then leaves
				Label: "intruder", Parts: person(graph.Color{R: 0.9, G: 0.1, B: 0.1}),
				Path:  []geom.Point{geom.Pt(16, 120), geom.Pt(304, 120)},
				Start: 0, End: 20,
			},
			{ // walks along the wall later, never enters the zone
				Label: "guard", Parts: person(graph.Color{R: 0.1, G: 0.3, B: 0.9}),
				Path:  []geom.Point{geom.Pt(40, 220), geom.Pt(280, 220)},
				Start: 26, End: 46,
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "live-feeds")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	live := core.OpenShared(core.DefaultConfig())
	svc, err := feed.Open(feed.Options{Dir: dir, DB: live})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	restricted := geom.Rect{Min: geom.Pt(140, 80), Max: geom.Pt(200, 160)}
	alert, err := svc.Engine().Register(&query.Query{Where: query.AndNode{Children: []query.Node{
		query.SpatialNode{Kind: query.SpatialPasses, Rect: restricted},
		query.HeadingNode{Dir: "east", Angle: 0, Tol: 0.5},
		query.SpeedNode{Lo: 3, Hi: math.Inf(1)},
	}}})
	if err != nil {
		log.Fatal(err)
	}
	cam, err := svc.Open("door-cam", feed.Meta{Width: seg.Width, Height: seg.Height, FPS: seg.FPS})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("streaming door-cam frames, four at a time:")
	var seen uint64
	report := func(upTo int) {
		svc.Engine().Quiesce()
		events, _, _ := alert.EventsSince(seen)
		for _, ev := range events {
			fmt.Printf("  ALERT by frame %2d: %s (%s) crossed the restricted zone heading east\n", upTo, ev.Clip, ev.Label)
			seen = ev.Seq
		}
	}
	for i := 0; i < len(seg.Frames); i += 4 {
		ogs := live.Stats().OGs
		res, err := cam.Append(seg.Frames[i:min(i+4, len(seg.Frames))])
		if err != nil {
			log.Fatal(err)
		}
		if res.Flushed {
			fmt.Printf("  frame %2d: epoch %d committed, %d OGs\n", res.NextFrame-1, res.Epoch-1, live.Stats().OGs-ogs)
			report(res.NextFrame - 1)
		}
	}
	if st := cam.State(); st.Pending > 0 {
		ogs := live.Stats().OGs
		if err := cam.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  end of stream: epoch %d committed, %d OGs\n", st.Epoch, live.Stats().OGs-ogs)
		report(len(seg.Frames) - 1)
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
