package strg

import (
	"fmt"
	"reflect"
	"testing"

	"strgindex/internal/geom"
	"strgindex/internal/video"
)

// addFrames builds the STRG of seg's first n frames the way a live feed
// does: Build over the first frame, then one Add per later frame.
func addFrames(t *testing.T, seg *video.Segment, n int, cfg Config) *STRG {
	t.Helper()
	s, err := Build(prefix(seg, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seg.Frames[1:n] {
		s.Add(f)
	}
	return s
}

func prefix(seg *video.Segment, n int) *video.Segment {
	p := *seg
	p.Frames = seg.Frames[:n]
	return &p
}

// sameSTRG fails unless got and want hold the same graph and decompose to
// the same output: temporal edges and their attributes, chains, OGs with
// their node IDs, and the background graph.
func sameSTRG(t *testing.T, label string, got, want *STRG, cfg Config) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"frameOf", got.frameOf, want.frameOf},
		{"next", got.next, want.next},
		{"inDeg", got.inDeg, want.inDeg},
		{"tattr", got.tattr, want.tattr},
		{"velIn", got.velIn, want.velIn},
		{"chains", got.Chains(), want.Chains()},
		{"memory", got.MemoryBytes(), want.MemoryBytes()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s differ from Build", label, c.name)
		}
	}
	gd, wd := got.Decompose(cfg), want.Decompose(cfg)
	if !reflect.DeepEqual(gd.OGs, wd.OGs) {
		t.Fatalf("%s: OGs differ from Build (%d vs %d)", label, len(gd.OGs), len(wd.OGs))
	}
	if !reflect.DeepEqual(gd.BG.Snapshot(), wd.BG.Snapshot()) || gd.NumBGChains != wd.NumBGChains || gd.NumFrames != wd.NumFrames {
		t.Fatalf("%s: background graph differs from Build", label)
	}
}

// openMovingOracle counts, from the chains themselves, what OpenMoving
// keeps per tail: chains ending in the newest frame with at least two
// nodes and a mean velocity at or above MinObjectVelocity.
func openMovingOracle(s *STRG, cfg Config) int {
	n := 0
	for _, c := range s.Chains() {
		if c.Frames[len(c.Frames)-1] == len(s.Frames)-1 && c.Len() >= 2 && c.MeanVelocity() >= cfg.MinObjectVelocity {
			n++
		}
	}
	return n
}

// TestAddMatchesBuild: an STRG grown frame by frame equals Build of the
// same frames, checked every fifth prefix and at the end — and decomposing
// it midway (a flush that fails and is retried after more frames) changes
// nothing, nor do the occlusion bridges laid after each frame. Without
// bridging, OpenMoving is checked against the chains at every prefix.
func TestAddMatchesBuild(t *testing.T) {
	prof := video.StreamProfiles()[0]
	prof.NumObjects = 8
	stream, err := video.GenerateStream(prof, 5)
	if err != nil {
		t.Fatal(err)
	}
	segs := append([]*video.Segment{occlusionScene(t, 1800)}, stream.Segments[:2]...)
	bridged := 0
	for _, conc := range []int{1, 2} {
		for _, bridge := range []int{0, 2} {
			cfg := DefaultConfig()
			cfg.Concurrency = conc
			cfg.BridgeFrames = bridge
			for si, seg := range segs {
				label := fmt.Sprintf("concurrency=%d bridge=%d segment %d", conc, bridge, si)
				s := addFrames(t, seg, 1, cfg)
				for n := 2; n <= len(seg.Frames); n++ {
					s.Add(seg.Frames[n-1])
					if bridge == 0 {
						if got, oracle := s.OpenMoving(), openMovingOracle(s, cfg); got != oracle {
							t.Fatalf("%s prefix %d: OpenMoving = %d, chains say %d", label, n, got, oracle)
						}
					}
					if n%5 != 0 && n != len(seg.Frames) {
						continue
					}
					// sameSTRG decomposes s, so the Adds after it grow an
					// STRG that has been decomposed — a retried flush.
					want, err := Build(prefix(seg, n), cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameSTRG(t, fmt.Sprintf("%s prefix %d", label, n), s, want, cfg)
					bridged += len(want.bridges)
				}
			}
		}
	}
	if bridged == 0 {
		t.Fatal("no segment laid an occlusion bridge; the bridge cases test nothing")
	}
}

// TestOnlineMatchesBatchOnSingleObject: one walking object grown frame by
// frame decomposes to the same OG as Build, sample by sample.
func TestOnlineMatchesBatchOnSingleObject(t *testing.T) {
	obj := personSpec("walker", []geom.Point{geom.Pt(30, 120), geom.Pt(290, 120)}, 0, 12)
	seg, err := video.Generate(sceneWithObjects(12, 0.5, obj))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	s, err := Build(seg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := s.Decompose(cfg).OGs
	online := addFrames(t, seg, len(seg.Frames), cfg).Decompose(cfg).OGs
	if len(online) != len(batch) || len(online) == 0 {
		t.Fatalf("online decomposed to %d OGs, batch %d", len(online), len(batch))
	}
	if online[0].Label != "walker" {
		t.Errorf("online OG label = %q", online[0].Label)
	}
	if online[0].Len() != batch[0].Len() {
		t.Errorf("online OG length %d, batch %d", online[0].Len(), batch[0].Len())
	}
	for i := range online[0].Centroids {
		if online[0].Centroids[i].Dist(batch[0].Centroids[i]) > 1e-9 {
			t.Fatalf("sample %d differs: %v vs %v", i, online[0].Centroids[i], batch[0].Centroids[i])
		}
	}
}

// TestCheckpointRestoreEveryFrame interrupts a live STRG after every
// prefix length k: the state rebuilt from the first k frames (Build, as a
// journal replay does) and decomposed once (an interrupted flush), then
// grown by the remaining frames, must equal an uninterrupted run exactly.
func TestCheckpointRestoreEveryFrame(t *testing.T) {
	seg := checkpointScene(t)
	cfg := DefaultConfig()
	ref := addFrames(t, seg, len(seg.Frames), cfg)
	for k := 1; k <= len(seg.Frames); k++ {
		r, err := Build(prefix(seg, k), cfg)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		r.Decompose(cfg)
		for _, f := range seg.Frames[k:] {
			r.Add(f)
		}
		sameSTRG(t, fmt.Sprintf("k=%d", k), r, ref, cfg)
	}
}

// TestOpenMovingQuiescence tracks the quiescence signal across an
// object's lifetime: nonzero while it moves, zero after its chain ends.
func TestOpenMovingQuiescence(t *testing.T) {
	obj := personSpec("walker", []geom.Point{geom.Pt(30, 120), geom.Pt(290, 120)}, 0, 10)
	seg, err := video.Generate(sceneWithObjects(20, 0.5, obj))
	if err != nil {
		t.Fatal(err)
	}
	s := addFrames(t, seg, 1, DefaultConfig())
	sawMoving := false
	for _, f := range seg.Frames[1:] {
		s.Add(f)
		if s.OpenMoving() > 0 {
			sawMoving = true
		}
	}
	if !sawMoving {
		t.Error("OpenMoving never saw the walking object")
	}
	if got := s.OpenMoving(); got != 0 {
		t.Errorf("OpenMoving = %d after the object left the scene", got)
	}
	if got := len(s.Frames); got != len(seg.Frames) {
		t.Errorf("frames added = %d, want %d", got, len(seg.Frames))
	}
}

// checkpointScene is a busy multi-object scene: crossing paths, staggered
// lifetimes and an early leaver, so multiple chains open and close on the
// same frames.
func checkpointScene(t *testing.T) *video.Segment {
	t.Helper()
	cfg := sceneWithObjects(24, 0.5,
		personSpec("east", []geom.Point{geom.Pt(20, 60), geom.Pt(300, 60)}, 0, 14),
		personSpec("west", []geom.Point{geom.Pt(300, 120), geom.Pt(20, 120)}, 0, 14),
		personSpec("south", []geom.Point{geom.Pt(160, 20), geom.Pt(160, 220)}, 4, 18),
		personSpec("late", []geom.Point{geom.Pt(20, 200), geom.Pt(300, 200)}, 8, 22),
	)
	seg, err := video.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestOnlineEmissionDeterministic grows the same STRG many times and
// demands identical decompositions — IDs, order and content.
func TestOnlineEmissionDeterministic(t *testing.T) {
	seg := checkpointScene(t)
	cfg := DefaultConfig()
	ref := addFrames(t, seg, len(seg.Frames), cfg).Decompose(cfg).OGs
	if len(ref) == 0 {
		t.Fatal("scene decomposed to no OGs")
	}
	for run := 0; run < 3; run++ {
		if got := addFrames(t, seg, len(seg.Frames), cfg).Decompose(cfg).OGs; !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d OGs differ from reference", run)
		}
	}
	for i, og := range ref {
		if og.ID != i {
			t.Errorf("OG %d has ID %d (want dense ascending IDs)", i, og.ID)
		}
	}
}

func TestOnlineTwoObjects(t *testing.T) {
	a := personSpec("north", []geom.Point{geom.Pt(80, 220), geom.Pt(80, 20)}, 0, 12)
	c := personSpec("east", []geom.Point{geom.Pt(30, 60), geom.Pt(290, 60)}, 0, 12)
	seg, err := video.Generate(sceneWithObjects(12, 0.5, a, c))
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]int{}
	for _, og := range addFrames(t, seg, len(seg.Frames), DefaultConfig()).Decompose(DefaultConfig()).OGs {
		labels[og.Label]++
	}
	if labels["north"] != 1 || labels["east"] != 1 {
		t.Errorf("OGs = %v, want one north and one east", labels)
	}
}

func TestOnlineStaticSceneEmitsNothing(t *testing.T) {
	seg, err := video.Generate(sceneWithObjects(10, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	s := addFrames(t, seg, len(seg.Frames), DefaultConfig())
	if ogs := s.Decompose(DefaultConfig()).OGs; len(ogs) != 0 {
		t.Errorf("static scene decomposed to %d OGs", len(ogs))
	}
	if got := s.OpenMoving(); got != 0 {
		t.Errorf("static scene: OpenMoving = %d", got)
	}
}
