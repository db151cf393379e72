package video

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"strgindex/internal/geom"
	"strgindex/internal/graph"
)

func simpleConfig() SceneConfig {
	return SceneConfig{
		Name:           "test",
		Width:          320,
		Height:         240,
		FPS:            12,
		Frames:         10,
		BackgroundRows: 2,
		BackgroundCols: 3,
		Jitter:         0,
		Seed:           1,
		Objects: []ObjectSpec{{
			Label: "obj0",
			Parts: []PartSpec{{Offset: geom.Vec(0, 0), Size: 300, Color: graph.Color{R: 1}}},
			Path:  []geom.Point{geom.Pt(10, 120), geom.Pt(310, 120)},
			Start: 0,
			End:   10,
		}},
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*SceneConfig)
		wantOK bool
	}{
		{"valid", func(c *SceneConfig) {}, true},
		{"zero width", func(c *SceneConfig) { c.Width = 0 }, false},
		{"zero frames", func(c *SceneConfig) { c.Frames = 0 }, false},
		{"negative grid", func(c *SceneConfig) { c.BackgroundRows = -1 }, false},
		{"object no parts", func(c *SceneConfig) { c.Objects[0].Parts = nil }, false},
		{"object no path", func(c *SceneConfig) { c.Objects[0].Path = nil }, false},
		{"object bad range", func(c *SceneConfig) { c.Objects[0].End = 99 }, false},
		{"object empty range", func(c *SceneConfig) { c.Objects[0].Start = 5; c.Objects[0].End = 5 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := simpleConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.wantOK {
				t.Errorf("Validate() error = %v, wantOK = %v", err, tt.wantOK)
			}
		})
	}
}

func TestGenerateShape(t *testing.T) {
	seg, err := Generate(simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Frames) != 10 {
		t.Fatalf("frames = %d, want 10", len(seg.Frames))
	}
	for i, f := range seg.Frames {
		if f.Index != i {
			t.Errorf("frame %d has Index %d", i, f.Index)
		}
		// 6 background + 1 object region.
		if len(f.Regions) != 7 {
			t.Errorf("frame %d has %d regions, want 7", i, len(f.Regions))
		}
		seen := map[int]bool{}
		for _, r := range f.Regions {
			if seen[r.ID] {
				t.Errorf("frame %d has duplicate region ID %d", i, r.ID)
			}
			seen[r.ID] = true
		}
	}
}

func TestGenerateObjectMoves(t *testing.T) {
	seg, err := Generate(simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	find := func(f Frame) Region {
		for _, r := range f.Regions {
			if r.Label == "obj0" {
				return r
			}
		}
		t.Fatal("object region not found")
		return Region{}
	}
	first := find(seg.Frames[0])
	last := find(seg.Frames[9])
	if last.Centroid.X <= first.Centroid.X {
		t.Errorf("object did not move east: %v -> %v", first.Centroid, last.Centroid)
	}
	if first.Centroid.X != 10 {
		t.Errorf("first centroid X = %v, want 10", first.Centroid.X)
	}
	if last.Centroid.X != 310 {
		t.Errorf("last centroid X = %v, want 310", last.Centroid.X)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := simpleConfig()
	cfg.Jitter = 2
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Frames {
		for j := range a.Frames[i].Regions {
			if a.Frames[i].Regions[j] != b.Frames[i].Regions[j] {
				t.Fatalf("frame %d region %d differs between identical configs", i, j)
			}
		}
	}
}

func TestGenerateJitterStaysInBounds(t *testing.T) {
	cfg := simpleConfig()
	cfg.Jitter = 10
	seg, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(cfg.Width, cfg.Height)}
	for _, f := range seg.Frames {
		for _, r := range f.Regions {
			if !bounds.Contains(r.Centroid) {
				t.Fatalf("region centroid %v outside frame bounds", r.Centroid)
			}
			if r.Size < 1 {
				t.Fatalf("region size %v below 1", r.Size)
			}
			for _, c := range []float64{r.Color.R, r.Color.G, r.Color.B} {
				if c < 0 || c > 1 {
					t.Fatalf("color component %v outside [0,1]", c)
				}
			}
		}
	}
}

func TestGenerateObjectActiveRange(t *testing.T) {
	cfg := simpleConfig()
	cfg.Objects[0].Start = 3
	cfg.Objects[0].End = 7
	seg, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range seg.Frames {
		has := false
		for _, r := range f.Regions {
			if r.Label == "obj0" {
				has = true
			}
		}
		want := i >= 3 && i < 7
		if has != want {
			t.Errorf("frame %d: object present = %v, want %v", i, has, want)
		}
	}
}

func TestClipRefString(t *testing.T) {
	c := ClipRef{Stream: "Lab1", Segment: "seg001", FrameStart: 3, FrameEnd: 20}
	if got := c.String(); got != "Lab1/seg001[3:20]" {
		t.Errorf("String = %q", got)
	}
}

func TestStreamProfilesMatchTable1(t *testing.T) {
	want := map[string]int{"Lab1": 411, "Lab2": 147, "Traffic1": 195, "Traffic2": 203}
	profiles := StreamProfiles()
	if len(profiles) != 4 {
		t.Fatalf("got %d profiles, want 4", len(profiles))
	}
	for _, p := range profiles {
		if want[p.Name] != p.NumObjects {
			t.Errorf("%s: NumObjects = %d, want %d", p.Name, p.NumObjects, want[p.Name])
		}
	}
}

func TestGenerateStreamObjectCount(t *testing.T) {
	p := StreamProfile{Name: "Mini", Kind: KindLab, NumObjects: 10, SegmentFrames: 12, ObjectsPerSegment: 3}
	s, err := GenerateStream(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumObjects() != 10 {
		t.Errorf("NumObjects = %d, want 10", s.NumObjects())
	}
	// ceil(10 / 3) == 4 segments.
	if len(s.Segments) != 4 {
		t.Errorf("segments = %d, want 4", len(s.Segments))
	}
	for label, class := range s.Classes {
		if !strings.HasPrefix(label, "Mini-obj") {
			t.Errorf("unexpected label %q", label)
		}
		if class == "" {
			t.Errorf("label %q has empty class", label)
		}
	}
}

func TestGenerateStreamTrafficUsesLanes(t *testing.T) {
	p := StreamProfile{Name: "T", Kind: KindTraffic, NumObjects: 40, SegmentFrames: 12, ObjectsPerSegment: 4}
	s, err := GenerateStream(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, class := range s.Classes {
		counts[class]++
	}
	if counts["lane-east"]+counts["lane-west"] < counts["cross-south"] {
		t.Errorf("traffic lanes should dominate: %v", counts)
	}
	for class := range counts {
		switch class {
		case "lane-east", "lane-west", "cross-south":
		default:
			t.Errorf("unexpected traffic class %q", class)
		}
	}
}

func TestGenerateStreamErrors(t *testing.T) {
	if _, err := GenerateStream(StreamProfile{Name: "bad"}, 1); err == nil {
		t.Error("GenerateStream with zero objects did not error")
	}
}

func TestStreamKindString(t *testing.T) {
	if KindLab.String() != "lab" || KindTraffic.String() != "traffic" {
		t.Error("StreamKind.String mismatch")
	}
	if got := StreamKind(9).String(); got != "StreamKind(9)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestSampleIndexDistribution(t *testing.T) {
	// All weight on index 1 -> always 1.
	weights := []float64{0, 1, 0}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if got := sampleIndex(rng, weights); got != 1 {
			t.Fatalf("sampleIndex = %d, want 1", got)
		}
	}
}

func TestApplyOcclusion(t *testing.T) {
	big := Region{Label: "truck", Size: 5000, Centroid: geom.Pt(100, 100), Color: graph.Color{R: 0.5, G: 0.5, B: 0.5}}
	hiddenBehind := Region{Label: "runner", Size: 200, Centroid: geom.Pt(110, 100)}
	clear := Region{Label: "runner", Size: 200, Centroid: geom.Pt(250, 100)}
	samePart := Region{Label: "truck", Size: 100, Centroid: geom.Pt(100, 102)}

	got := applyOcclusion([]Region{big, hiddenBehind, clear, samePart})
	if len(got) != 3 {
		t.Fatalf("regions after occlusion = %d, want 3", len(got))
	}
	for _, r := range got {
		if r.Centroid == hiddenBehind.Centroid && r.Label == "runner" {
			t.Error("hidden region survived occlusion")
		}
	}
	// Same-object parts never occlude each other; the clear region stays.
	labels := map[string]int{}
	for _, r := range got {
		labels[r.Label]++
	}
	if labels["truck"] != 2 || labels["runner"] != 1 {
		t.Errorf("labels after occlusion = %v", labels)
	}
}

func TestGenerateWithOcclusionDisabledKeepsAll(t *testing.T) {
	cfg := simpleConfig()
	cfg.Objects = append(cfg.Objects, ObjectSpec{
		Label: "blocker",
		Parts: []PartSpec{{Size: 9000, Color: graph.Color{R: 0.9, G: 0.9, B: 0.9}}},
		Path:  []geom.Point{geom.Pt(160, 120), geom.Pt(161, 120)},
		Start: 0, End: 10,
	})
	seg, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without Occlusion, both objects' regions exist in every frame.
	for _, f := range seg.Frames {
		count := 0
		for _, r := range f.Regions {
			if r.Label != "" {
				count++
			}
		}
		if count != 2 {
			t.Fatalf("object regions = %d, want 2 (occlusion off)", count)
		}
	}
}

func TestSegmentJSONRoundTrip(t *testing.T) {
	cfg := simpleConfig()
	cfg.Jitter = 1
	seg, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(seg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != seg.Name || len(got.Frames) != len(seg.Frames) {
		t.Fatalf("round trip shape: %s/%d vs %s/%d", got.Name, len(got.Frames), seg.Name, len(seg.Frames))
	}
	for i := range seg.Frames {
		for j := range seg.Frames[i].Regions {
			if got.Frames[i].Regions[j] != seg.Frames[i].Regions[j] {
				t.Fatalf("frame %d region %d differs after round trip", i, j)
			}
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	tests := []struct {
		name string
		body string
	}{
		{"garbage", "not json"},
		{"no frames", `{"Name":"x","Width":10,"Height":10,"FPS":1,"Frames":[]}`},
		{"bad dims", `{"Name":"x","Width":0,"Height":10,"Frames":[{"Index":0}]}`},
		{"bad index", `{"Name":"x","Width":10,"Height":10,"Frames":[{"Index":3}]}`},
		{"dup region id", `{"Name":"x","Width":10,"Height":10,"Frames":[{"Index":0,"Regions":[
			{"ID":1,"Size":5,"Centroid":{"X":1,"Y":1}},{"ID":1,"Size":5,"Centroid":{"X":2,"Y":2}}]}]}`},
		{"zero size region", `{"Name":"x","Width":10,"Height":10,"Frames":[{"Index":0,"Regions":[
			{"ID":1,"Size":0,"Centroid":{"X":1,"Y":1}}]}]}`},
		{"out of bounds", `{"Name":"x","Width":10,"Height":10,"Frames":[{"Index":0,"Regions":[
			{"ID":1,"Size":5,"Centroid":{"X":99,"Y":1}}]}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(tt.body)); err == nil {
				t.Error("invalid segment accepted")
			}
		})
	}
}

func TestConcatErrors(t *testing.T) {
	if _, err := Concat("x"); err == nil {
		t.Error("Concat of nothing did not error")
	}
	a, err := Generate(simpleConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := simpleConfig()
	cfg.Width = 640 // dimension mismatch
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Concat("x", a, b); err == nil {
		t.Error("Concat with mismatched dimensions did not error")
	}
}

func TestConcatRenumbersFrames(t *testing.T) {
	a, _ := Generate(simpleConfig())
	b, _ := Generate(simpleConfig())
	joined, err := Concat("j", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(joined.Frames) != 20 {
		t.Fatalf("frames = %d, want 20", len(joined.Frames))
	}
	for i, f := range joined.Frames {
		if f.Index != i {
			t.Fatalf("frame %d has index %d", i, f.Index)
		}
	}
}
