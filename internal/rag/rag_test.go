package rag

import (
	"math"
	"testing"

	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/video"
)

func frameOf(regions ...video.Region) video.Frame {
	for i := range regions {
		regions[i].ID = i
	}
	return video.Frame{Index: 0, Regions: regions}
}

func TestEquivalentRadius(t *testing.T) {
	tests := []struct {
		size, want float64
	}{
		{0, 0},
		{-5, 0},
		{math.Pi, 1},
		{4 * math.Pi, 2},
	}
	for _, tt := range tests {
		if got := EquivalentRadius(tt.size); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("EquivalentRadius(%v) = %v, want %v", tt.size, got, tt.want)
		}
	}
}

func TestBuildNodes(t *testing.T) {
	f := frameOf(
		video.Region{Centroid: geom.Pt(10, 10), Size: 100, Color: graph.Color{R: 0.5, G: 0.5, B: 0.5}, Label: "a"},
		video.Region{Centroid: geom.Pt(200, 200), Size: 50, Color: graph.Color{R: 0.2, G: 0.2, B: 0.2}},
	)
	g := Build(f, DefaultConfig(), 0)
	if g.Order() != 2 {
		t.Fatalf("Order = %d, want 2", g.Order())
	}
	n, ok := g.Node(0)
	if !ok {
		t.Fatal("node 0 missing")
	}
	if n.Attr.Size != 100 || n.Attr.Label != "a" || n.Attr.Centroid != geom.Pt(10, 10) {
		t.Errorf("node 0 attrs = %+v", n.Attr)
	}
}

func TestBuildAdjacency(t *testing.T) {
	// Two size-100 regions: equivalent radius ≈ 5.64, threshold ≈ 18.05.
	r := EquivalentRadius(100)
	tests := []struct {
		name string
		dist float64
		want bool
	}{
		{"touching", 2 * r, true},
		{"near", 1.5 * 2 * r, true},
		{"just inside", 1.59 * 2 * r, true},
		{"just outside", 1.61 * 2 * r, false},
		{"far", 100, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := frameOf(
				video.Region{Centroid: geom.Pt(0, 0), Size: 100},
				video.Region{Centroid: geom.Pt(tt.dist, 0), Size: 100},
			)
			g := Build(f, DefaultConfig(), 0)
			if got := g.HasEdge(0, 1); got != tt.want {
				t.Errorf("HasEdge at dist %.2f = %v, want %v", tt.dist, got, tt.want)
			}
		})
	}
}

func TestBuildEdgeAttrs(t *testing.T) {
	f := frameOf(
		video.Region{Centroid: geom.Pt(0, 0), Size: 400},
		video.Region{Centroid: geom.Pt(10, 10), Size: 400},
	)
	g := Build(f, DefaultConfig(), 0)
	attr, ok := g.EdgeAttr(0, 1)
	if !ok {
		t.Fatal("edge missing")
	}
	if want := math.Sqrt(200); math.Abs(attr.Dist-want) > 1e-9 {
		t.Errorf("Dist = %v, want %v", attr.Dist, want)
	}
	if want := math.Pi / 4; math.Abs(attr.Orient-want) > 1e-9 {
		t.Errorf("Orient = %v, want %v", attr.Orient, want)
	}
}

func TestBuildBaseID(t *testing.T) {
	f := frameOf(video.Region{Centroid: geom.Pt(0, 0), Size: 10})
	g := Build(f, DefaultConfig(), 1000)
	if !g.Has(1000) {
		t.Error("node 1000 missing with baseID offset")
	}
	if g.Has(0) {
		t.Error("node 0 present despite baseID offset")
	}
}

func TestBuildEmptyFrame(t *testing.T) {
	g := Build(video.Frame{}, DefaultConfig(), 0)
	if g.Order() != 0 || g.Size() != 0 {
		t.Errorf("empty frame produced %d nodes, %d edges", g.Order(), g.Size())
	}
}

func TestBuildZeroConfigFallsBack(t *testing.T) {
	f := frameOf(
		video.Region{Centroid: geom.Pt(0, 0), Size: 100},
		video.Region{Centroid: geom.Pt(15, 0), Size: 100},
	)
	g := Build(f, Config{}, 0)
	if !g.HasEdge(0, 1) {
		t.Error("zero config did not fall back to default adjacency scale")
	}
}

func TestBuildGeneratedFrameConnected(t *testing.T) {
	cfg := video.SceneConfig{
		Name: "t", Width: 320, Height: 240, FPS: 12, Frames: 1,
		BackgroundRows: 3, BackgroundCols: 4, Seed: 1,
	}
	seg, err := video.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(seg.Frames[0], DefaultConfig(), 0)
	if g.Order() != 12 {
		t.Fatalf("Order = %d, want 12", g.Order())
	}
	// The background grid tiles the frame, so every cell must touch at
	// least one neighbor.
	for _, id := range g.NodeIDs() {
		if g.Degree(id) == 0 {
			t.Errorf("background node %d is isolated", id)
		}
	}
}
