package strg

import (
	"math"
	"testing"

	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/video"
)

// sceneWithObjects builds a test scene: static background grid plus the
// given objects.
func sceneWithObjects(frames int, jitter float64, objects ...video.ObjectSpec) video.SceneConfig {
	return video.SceneConfig{
		Name:           "test-seg",
		Width:          320,
		Height:         240,
		FPS:            12,
		Frames:         frames,
		BackgroundRows: 3,
		BackgroundCols: 4,
		Jitter:         jitter,
		Seed:           11,
		Objects:        objects,
	}
}

func personSpec(label string, path []geom.Point, start, end int) video.ObjectSpec {
	return video.ObjectSpec{
		Label: label,
		Parts: []video.PartSpec{
			{Offset: geom.Vec(0, -16), Size: 100, Color: graph.Color{R: 0.9, G: 0.7, B: 0.6}},
			{Offset: geom.Vec(0, 0), Size: 350, Color: graph.Color{R: 0.8, G: 0.2, B: 0.2}},
			{Offset: geom.Vec(0, 17), Size: 250, Color: graph.Color{R: 0.2, G: 0.2, B: 0.3}},
		},
		Path:  path,
		Start: start,
		End:   end,
	}
}

func buildScene(t *testing.T, cfg video.SceneConfig) *STRG {
	t.Helper()
	seg, err := video.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(seg, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildEmptySegment(t *testing.T) {
	if _, err := Build(nil, DefaultConfig()); err == nil {
		t.Error("Build(nil) did not error")
	}
	if _, err := Build(&video.Segment{}, DefaultConfig()); err == nil {
		t.Error("Build(empty) did not error")
	}
}

func TestBuildFramesAndUniqueIDs(t *testing.T) {
	s := buildScene(t, sceneWithObjects(8, 0))
	if len(s.Frames) != 8 {
		t.Fatalf("frames = %d, want 8", len(s.Frames))
	}
	// 12 background regions per frame, no objects.
	if len(s.frameOf) != 8*12 {
		t.Errorf("NumNodes = %d, want 96", len(s.frameOf))
	}
	seen := make(map[graph.NodeID]bool)
	for _, g := range s.Frames {
		for _, id := range g.NodeIDs() {
			if seen[id] {
				t.Fatalf("node ID %d appears in two frames", id)
			}
			seen[id] = true
		}
	}
}

func TestTrackingStaticBackground(t *testing.T) {
	s := buildScene(t, sceneWithObjects(8, 0))
	// Every background node except those in the last frame should track to
	// its counterpart with zero velocity.
	if got, want := s.NumTemporalEdges(), 7*12; got != want {
		t.Errorf("temporal edges = %d, want %d", got, want)
	}
	for id := range s.next {
		attr := s.tattr[id]
		if attr.Velocity > 1e-9 {
			t.Errorf("static node %d has velocity %v", id, attr.Velocity)
		}
	}
}

func TestTrackingFollowsMovingObject(t *testing.T) {
	obj := personSpec("walker", []geom.Point{geom.Pt(30, 120), geom.Pt(290, 120)}, 0, 12)
	s := buildScene(t, sceneWithObjects(12, 0, obj))
	// Find a chain of "walker" nodes covering most of the segment.
	chains := s.Chains()
	var best *Chain
	for _, c := range chains {
		n, _ := s.nodeOf(c.Nodes[0])
		if n.Attr.Label == "walker" && (best == nil || c.Len() > best.Len()) {
			best = c
		}
	}
	if best == nil {
		t.Fatal("no chain tracked the walker")
	}
	if best.Len() < 10 {
		t.Errorf("walker chain length = %d, want >= 10", best.Len())
	}
	// The object moves east at ~23.6 px/frame.
	v := best.MeanVelocity()
	if v < 15 || v > 35 {
		t.Errorf("walker velocity = %v, want ~23.6", v)
	}
	for i, a := range best.Attrs {
		if d := geom.AngleDiff(a.Direction, 0); a.Velocity > 1e-9 && d > 0.3 {
			t.Errorf("walker step %d direction off east by %v rad", i, d)
		}
	}
}

func TestChainsPartitionNodes(t *testing.T) {
	obj := personSpec("walker", []geom.Point{geom.Pt(30, 120), geom.Pt(290, 120)}, 2, 10)
	s := buildScene(t, sceneWithObjects(12, 1.0, obj))
	chains := s.Chains()
	seen := make(map[graph.NodeID]bool)
	total := 0
	for _, c := range chains {
		if len(c.Nodes) != len(c.Frames) {
			t.Fatalf("chain nodes/frames length mismatch: %d vs %d", len(c.Nodes), len(c.Frames))
		}
		if len(c.Attrs) != len(c.Nodes)-1 {
			t.Fatalf("chain attrs length = %d, want %d", len(c.Attrs), len(c.Nodes)-1)
		}
		for i := 1; i < len(c.Frames); i++ {
			if c.Frames[i] != c.Frames[i-1]+1 {
				t.Fatalf("chain frames not consecutive: %v", c.Frames)
			}
		}
		for _, id := range c.Nodes {
			if seen[id] {
				t.Fatalf("node %d in two chains", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != len(s.frameOf) {
		t.Errorf("chains cover %d nodes, want %d", total, len(s.frameOf))
	}
}

func TestDecomposeSingleObject(t *testing.T) {
	obj := personSpec("walker", []geom.Point{geom.Pt(30, 120), geom.Pt(290, 120)}, 0, 12)
	s := buildScene(t, sceneWithObjects(12, 0.5, obj))
	d := s.Decompose(DefaultConfig())
	if len(d.OGs) != 1 {
		labels := make([]string, 0, len(d.OGs))
		for _, og := range d.OGs {
			labels = append(labels, og.Label)
		}
		t.Fatalf("OGs = %d (%v), want 1 (three parts merged)", len(d.OGs), labels)
	}
	og := d.OGs[0]
	if og.Label != "walker" {
		t.Errorf("OG label = %q, want walker", og.Label)
	}
	if og.Len() < 10 {
		t.Errorf("OG length = %d, want >= 10", og.Len())
	}
	// Background graph should have one node per background cell.
	if d.BG.Order() != 12 {
		t.Errorf("BG order = %d, want 12", d.BG.Order())
	}
	if d.BG.Size() == 0 {
		t.Error("BG has no spatial edges")
	}
}

func TestDecomposeTwoSeparateObjects(t *testing.T) {
	a := personSpec("north", []geom.Point{geom.Pt(80, 220), geom.Pt(80, 20)}, 0, 12)
	b := personSpec("east", []geom.Point{geom.Pt(30, 60), geom.Pt(290, 60)}, 0, 12)
	s := buildScene(t, sceneWithObjects(12, 0.5, a, b))
	d := s.Decompose(DefaultConfig())
	labels := map[string]int{}
	for _, og := range d.OGs {
		labels[og.Label]++
	}
	if labels["north"] != 1 || labels["east"] != 1 {
		t.Errorf("OG labels = %v, want one north and one east", labels)
	}
}

func TestOGSequence(t *testing.T) {
	obj := personSpec("walker", []geom.Point{geom.Pt(30, 120), geom.Pt(290, 120)}, 0, 12)
	s := buildScene(t, sceneWithObjects(12, 0, obj))
	d := s.Decompose(DefaultConfig())
	if len(d.OGs) != 1 {
		t.Fatalf("OGs = %d, want 1", len(d.OGs))
	}
	seq := d.OGs[0].Sequence()
	if len(seq) != d.OGs[0].Len() {
		t.Fatalf("sequence length %d != OG length %d", len(seq), d.OGs[0].Len())
	}
	if seq.Dim() != 2 {
		t.Fatalf("sequence dim = %d, want 2", seq.Dim())
	}
	// Monotone eastward trajectory.
	for i := 1; i < len(seq); i++ {
		if seq[i][0] <= seq[i-1][0] {
			t.Errorf("trajectory X not increasing at %d: %v -> %v", i, seq[i-1][0], seq[i][0])
		}
	}
}

func TestDecomposeSizeAccounting(t *testing.T) {
	obj := personSpec("walker", []geom.Point{geom.Pt(30, 120), geom.Pt(290, 120)}, 0, 12)
	s := buildScene(t, sceneWithObjects(12, 0.5, obj))
	d := s.Decompose(DefaultConfig())
	if d.NumFrames != 12 {
		t.Errorf("NumFrames = %d, want 12", d.NumFrames)
	}
	strgSize := d.STRGSizeBytes()
	if strgSize <= 0 {
		t.Fatal("STRGSizeBytes <= 0")
	}
	// Equation 9 dominates via N × size(BG).
	if bgTerm := d.NumFrames * d.BG.MemoryBytes(); strgSize < bgTerm {
		t.Errorf("STRG size %d < background term %d", strgSize, bgTerm)
	}
	if s.MemoryBytes() <= 0 {
		t.Error("raw STRG MemoryBytes <= 0")
	}
}

func TestOGFrameBounds(t *testing.T) {
	obj := personSpec("walker", []geom.Point{geom.Pt(30, 120), geom.Pt(290, 120)}, 3, 11)
	s := buildScene(t, sceneWithObjects(14, 0, obj))
	d := s.Decompose(DefaultConfig())
	if len(d.OGs) != 1 {
		t.Fatalf("OGs = %d, want 1", len(d.OGs))
	}
	og := d.OGs[0]
	if og.StartFrame() < 3 {
		t.Errorf("StartFrame = %d, want >= 3", og.StartFrame())
	}
	if og.EndFrame() > 10 {
		t.Errorf("EndFrame = %d, want <= 10", og.EndFrame())
	}
	if og.Clip.FrameStart != og.StartFrame() || og.Clip.FrameEnd != og.EndFrame()+1 {
		t.Errorf("clip %v does not match OG span [%d, %d]", og.Clip, og.StartFrame(), og.EndFrame())
	}
	empty := &OG{}
	if empty.StartFrame() != -1 || empty.EndFrame() != -1 {
		t.Error("empty OG frame bounds should be -1")
	}
}

func TestChainMeanVelocity(t *testing.T) {
	c := &Chain{
		Nodes:  []graph.NodeID{0, 1, 2},
		Frames: []int{0, 1, 2},
		Attrs: []TemporalAttr{
			{Velocity: 2, Direction: 0},
			{Velocity: 2, Direction: 0},
		},
	}
	if got := c.MeanVelocity(); math.Abs(got-2) > 1e-9 {
		t.Errorf("MeanVelocity = %v, want 2", got)
	}
	still := &Chain{Nodes: []graph.NodeID{0}, Frames: []int{0}}
	if still.MeanVelocity() != 0 {
		t.Error("single-node chain should have zero velocity")
	}
}

func TestDecomposeNoObjects(t *testing.T) {
	s := buildScene(t, sceneWithObjects(8, 0.5))
	d := s.Decompose(DefaultConfig())
	if len(d.OGs) != 0 {
		t.Errorf("OGs = %d, want 0 for a static scene", len(d.OGs))
	}
	if d.BG.Order() != 12 {
		t.Errorf("BG order = %d, want 12", d.BG.Order())
	}
}

func TestHeavyJitterStillTracksObject(t *testing.T) {
	// Failure injection: strong segmentation noise. Tracking should still
	// produce at least one OG for a fast-moving object, even if fragmented.
	obj := personSpec("walker", []geom.Point{geom.Pt(30, 120), geom.Pt(290, 120)}, 0, 12)
	s := buildScene(t, sceneWithObjects(12, 3.0, obj))
	d := s.Decompose(DefaultConfig())
	found := false
	for _, og := range d.OGs {
		if og.Label == "walker" {
			found = true
		}
	}
	if !found {
		t.Error("no OG labeled walker under heavy jitter")
	}
}
