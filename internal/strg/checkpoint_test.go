package strg

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"strgindex/internal/geom"
	"strgindex/internal/video"
)

// checkpointScene is a busy multi-object scene: crossing paths, staggered
// lifetimes and an early leaver, so multiple chains open and close on the
// same frames — the situation where closure order (and with it OG
// numbering) would be nondeterministic if it iterated a map.
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

func runOnline(cfg Config, frames []video.Frame) []*OG {
	b := NewOnlineBuilder(cfg)
	var out []*OG
	for _, f := range frames {
		out = append(out, b.AddFrame(f)...)
	}
	return append(out, b.Flush()...)
}

// TestOnlineEmissionDeterministic replays the same frame stream many
// times and demands byte-identical emissions — IDs, order and content.
// Before closure order was sorted this flaked over map iteration.
func TestOnlineEmissionDeterministic(t *testing.T) {
	seg := checkpointScene(t)
	ref := runOnline(DefaultConfig(), seg.Frames)
	if len(ref) == 0 {
		t.Fatal("scene emitted no OGs")
	}
	for run := 0; run < 10; run++ {
		got := runOnline(DefaultConfig(), seg.Frames)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d emissions differ from reference", run)
		}
	}
	for i, og := range ref {
		if og.ID != i {
			t.Errorf("OG %d has ID %d (want dense ascending IDs)", i, og.ID)
		}
	}
}

// TestCheckpointRestoreEveryFrame checkpoints after every prefix length
// k, restores through a gob round trip (the feed journal's encoding),
// replays the remaining frames, and demands the combined emissions equal
// an uninterrupted run exactly.
func TestCheckpointRestoreEveryFrame(t *testing.T) {
	seg := checkpointScene(t)
	cfg := DefaultConfig()
	ref := runOnline(cfg, seg.Frames)

	for k := 0; k <= len(seg.Frames); k++ {
		b := NewOnlineBuilder(cfg)
		var got []*OG
		for _, f := range seg.Frames[:k] {
			got = append(got, b.AddFrame(f)...)
		}
		st := b.Checkpoint()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatalf("k=%d: encoding checkpoint: %v", k, err)
		}
		var round BuilderState
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&round); err != nil {
			t.Fatalf("k=%d: decoding checkpoint: %v", k, err)
		}
		r, err := RestoreOnlineBuilder(cfg, &round)
		if err != nil {
			t.Fatalf("k=%d: restore: %v", k, err)
		}
		for _, f := range seg.Frames[k:] {
			got = append(got, r.AddFrame(f)...)
		}
		got = append(got, r.Flush()...)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("k=%d: emissions after restore differ from uninterrupted run (got %d OGs, want %d)",
				k, len(got), len(ref))
		}
	}
}

// TestCheckpointBytesDeterministic demands two checkpoints of the same
// state encode to identical bytes: map-shaped builder state must flatten
// into sorted slices or the feed journal loses byte reproducibility.
func TestCheckpointBytesDeterministic(t *testing.T) {
	seg := checkpointScene(t)
	for k := 1; k <= len(seg.Frames); k += 5 {
		enc := func() []byte {
			b := NewOnlineBuilder(DefaultConfig())
			for _, f := range seg.Frames[:k] {
				b.AddFrame(f)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(b.Checkpoint()); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(enc(), enc()) {
			t.Fatalf("k=%d: checkpoint bytes differ between identical states", k)
		}
	}
}

// TestCheckpointIsolated mutating the builder after Checkpoint must not
// leak into the captured state.
func TestCheckpointIsolated(t *testing.T) {
	seg := checkpointScene(t)
	b := NewOnlineBuilder(DefaultConfig())
	for _, f := range seg.Frames[:8] {
		b.AddFrame(f)
	}
	st := b.Checkpoint()
	before, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seg.Frames[8:] {
		b.AddFrame(f)
	}
	b.Flush()
	after, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("checkpoint state mutated by later builder activity")
	}
}

func encodeState(st *BuilderState) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(st)
	return buf.Bytes(), err
}

func TestRestoreRejectsBadState(t *testing.T) {
	if _, err := RestoreOnlineBuilder(DefaultConfig(), nil); err == nil {
		t.Error("nil state accepted")
	}
	bad := &BuilderState{Open: []ChainState{{Tail: -1}}}
	if _, err := RestoreOnlineBuilder(DefaultConfig(), bad); err == nil {
		t.Error("open chain without tail accepted")
	}
	frame := &video.Frame{Regions: []video.Region{{ID: 0, Size: 10}, {ID: 1, Size: 10}}}
	if _, err := RestoreOnlineBuilder(DefaultConfig(), &BuilderState{BaseID: 1, LastFrame: frame}); err == nil {
		t.Error("base ID below last frame's regions accepted")
	}
}

// TestOpenMovingQuiescence tracks the quiescence signal across an
// object's lifetime: nonzero while it moves, zero after its chain closes.
func TestOpenMovingQuiescence(t *testing.T) {
	obj := personSpec("walker", []geom.Point{geom.Pt(30, 120), geom.Pt(290, 120)}, 0, 10)
	cfg := sceneWithObjects(20, 0.5, obj)
	seg, err := video.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := NewOnlineBuilder(DefaultConfig())
	sawMoving := false
	for i, f := range seg.Frames {
		b.AddFrame(f)
		if b.OpenMoving() > 0 {
			sawMoving = true
		}
		if i == len(seg.Frames)-1 && b.OpenMoving() != 0 {
			t.Errorf("OpenMoving = %d after the object left the scene", b.OpenMoving())
		}
	}
	if !sawMoving {
		t.Error("OpenMoving never saw the walking object")
	}
	if got := b.frame; got != len(seg.Frames) {
		t.Errorf("frames consumed = %d, want %d", got, len(seg.Frames))
	}
}
