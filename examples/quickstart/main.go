// Quickstart: generate a tiny surveillance scene, ingest it through the
// full STRG pipeline (RAG → tracking → STRG → decomposition → clustering →
// STRG-Index) and run a similarity query over object motion.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/query"
	"strgindex/internal/video"
)

func main() {
	// A 320x240 scene: a static 3x4 background grid, one person walking
	// east and one walking south, with mild segmentation jitter.
	person := func(shirt graph.Color) []video.PartSpec {
		return []video.PartSpec{
			{Offset: geom.Vec(0, -16), Size: 100, Color: graph.Color{R: 0.85, G: 0.68, B: 0.55}}, // head
			{Offset: geom.Vec(0, 0), Size: 350, Color: shirt},                                    // torso
			{Offset: geom.Vec(0, 17), Size: 250, Color: graph.Color{R: 0.2, G: 0.22, B: 0.28}},   // legs
		}
	}
	scene := video.SceneConfig{
		Name: "demo-seg0", Width: 320, Height: 240, FPS: 12, Frames: 24,
		BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8, Seed: 7,
		Objects: []video.ObjectSpec{
			{
				Label: "alice", Parts: person(graph.Color{R: 0.8, G: 0.2, B: 0.2}),
				Path:  []geom.Point{geom.Pt(20, 120), geom.Pt(300, 120)},
				Start: 0, End: 24,
			},
			{
				Label: "bob", Parts: person(graph.Color{R: 0.2, G: 0.3, B: 0.8}),
				Path:  []geom.Point{geom.Pt(80, 20), geom.Pt(80, 220)},
				Start: 2, End: 22,
			},
		},
	}
	seg, err := video.Generate(scene)
	if err != nil {
		log.Fatal(err)
	}

	// Ingest: one call runs the whole pipeline.
	db := core.Open(core.DefaultConfig())
	stats, err := db.IngestSegment("demo", seg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d frames: %d temporal edges, %d object graphs, %d background regions\n",
		stats.Frames, stats.TemporalEdges, stats.OGs, stats.BGNodes)

	s := db.Stats()
	fmt.Printf("index: %d OGs in %d clusters; STRG %0.1fKB -> index %0.1fKB\n\n",
		s.OGs, s.Clusters, float64(s.STRGBytes)/1024, float64(s.IndexBytes)/1024)

	// Query: "who moved east through the middle of the frame?"
	traj := make(dist.Sequence, 12)
	for i := range traj {
		traj[i] = dist.Vec{20 + float64(i)*25, 120}
	}
	res, err := db.QueryComposedCtx(context.Background(), &query.Query{
		Similar: &query.SimilarClause{Trajectory: traj, K: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	for rank, m := range res.Matches {
		fmt.Printf("match %d: %s (distance %.1f) -> clip %s\n",
			rank+1, m.Record.Label, m.Distance, m.Record.Clip)
	}
}
