package strg

import (
	"testing"

	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/video"
)

// occlusionScene builds a crossing: a large slow object of the given size
// sits mid-frame while a small fast one passes behind it and vanishes —
// for four frames behind the 5200-pixel blocker, two behind 1800 pixels.
func occlusionScene(t *testing.T, blocker float64) *video.Segment {
	t.Helper()
	seg, err := video.Generate(video.SceneConfig{
		Name: "occl", Width: 320, Height: 240, FPS: 12, Frames: 16,
		BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.3, Seed: 12,
		Occlusion: true,
		Objects: []video.ObjectSpec{
			{ // large stationary-ish blocker in the middle
				Label: "truck",
				Parts: []video.PartSpec{{Size: blocker, Color: graph.Color{R: 0.9, G: 0.8, B: 0.1}}},
				Path:  []geom.Point{geom.Pt(150, 120), geom.Pt(170, 120)},
				Start: 0, End: 16,
			},
			{ // small runner crossing behind it
				Label: "runner",
				Parts: []video.PartSpec{{Size: 260, Color: graph.Color{R: 0.1, G: 0.9, B: 0.9}}},
				Path:  []geom.Point{geom.Pt(20, 122), geom.Pt(300, 122)},
				Start: 0, End: 16,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestOcclusionHidesRegions(t *testing.T) {
	seg := occlusionScene(t, 5200)
	hiddenFrames := 0
	for _, f := range seg.Frames {
		present := false
		for _, r := range f.Regions {
			if r.Label == "runner" {
				present = true
			}
		}
		if !present {
			hiddenFrames++
		}
	}
	if hiddenFrames == 0 {
		t.Fatal("occlusion never hid the runner; scene is miscalibrated")
	}
	if hiddenFrames > 8 {
		t.Fatalf("runner hidden for %d frames; scene is miscalibrated", hiddenFrames)
	}
}

func TestBridgingReconnectsOccludedTrack(t *testing.T) {
	seg := occlusionScene(t, 5200)

	countRunnerOGs := func(cfg Config) int {
		s, err := Build(seg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, og := range s.Decompose(cfg).OGs {
			if og.Label == "runner" {
				n++
			}
		}
		return n
	}

	noBridge := DefaultConfig()
	if got := countRunnerOGs(noBridge); got < 2 {
		t.Fatalf("without bridging the occluded track should fragment: got %d runner OGs", got)
	}

	bridge := DefaultConfig()
	bridge.BridgeFrames = 5
	if got := countRunnerOGs(bridge); got != 1 {
		t.Fatalf("with bridging, runner OGs = %d, want 1", got)
	}
}

func TestBridgedOGSpansTheGap(t *testing.T) {
	seg := occlusionScene(t, 5200)
	cfg := DefaultConfig()
	cfg.BridgeFrames = 5
	s, err := Build(seg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var runner *OG
	for _, og := range s.Decompose(cfg).OGs {
		if og.Label == "runner" {
			runner = og
		}
	}
	if runner == nil {
		t.Fatal("runner OG missing")
	}
	// The OG spans from early to late frames even though samples are
	// missing in the middle.
	if runner.StartFrame() > 3 || runner.EndFrame() < 12 {
		t.Errorf("bridged OG spans [%d, %d], want roughly [0, 15]", runner.StartFrame(), runner.EndFrame())
	}
	// Trajectory is still monotone eastbound across the gap.
	for i := 1; i < runner.Len(); i++ {
		if runner.Centroids[i].X <= runner.Centroids[i-1].X-5 {
			t.Errorf("trajectory reverses at sample %d: %v -> %v", i, runner.Centroids[i-1], runner.Centroids[i])
		}
	}
}

func TestBridgingDoesNotJoinDistinctObjects(t *testing.T) {
	// Two objects with a temporal gap but far apart spatially: no bridge.
	a := personSpec("first", []geom.Point{geom.Pt(30, 60), geom.Pt(150, 60)}, 0, 6)
	b := personSpec("second", []geom.Point{geom.Pt(30, 200), geom.Pt(150, 200)}, 8, 14)
	cfg := sceneWithObjects(14, 0.3, a, b)
	seg, err := video.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig()
	c.BridgeFrames = 5
	s, err := Build(seg, c)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]int{}
	for _, og := range s.Decompose(c).OGs {
		labels[og.Label]++
	}
	if labels["first"] != 1 || labels["second"] != 1 {
		t.Errorf("bridging merged distinct objects: %v", labels)
	}
}
