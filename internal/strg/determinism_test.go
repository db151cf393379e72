package strg

import (
	"testing"

	"strgindex/internal/video"
)

// TestBuildDeterministicUnderConcurrency verifies that the concurrent
// construction path (parallel RAGs, parallel candidate scoring) emits
// exactly the temporal edges of the sequential build: tracking's ranking
// and greedy assignment consume a candidate list whose content and order
// do not depend on scheduling.
func TestBuildDeterministicUnderConcurrency(t *testing.T) {
	prof := video.StreamProfiles()[0]
	prof.NumObjects = 8
	stream, err := video.GenerateStream(prof, 5)
	if err != nil {
		t.Fatal(err)
	}
	for si, seg := range stream.Segments {
		cfg := DefaultConfig()
		cfg.BridgeFrames = 2 // exercise the occlusion-bridging pass too
		cfg.Concurrency = 1
		want, err := Build(seg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 3} {
			cfg.Concurrency = workers
			got, err := Build(seg, cfg)
			if err != nil {
				t.Fatalf("segment %d workers=%d: %v", si, workers, err)
			}
			if len(got.frameOf) != len(want.frameOf) {
				t.Fatalf("segment %d workers=%d: %d nodes, want %d", si, workers, len(got.frameOf), len(want.frameOf))
			}
			if got.NumTemporalEdges() != want.NumTemporalEdges() {
				t.Fatalf("segment %d workers=%d: %d temporal edges, want %d",
					si, workers, got.NumTemporalEdges(), want.NumTemporalEdges())
			}
			for _, g := range want.Frames {
				for _, id := range g.NodeIDs() {
					wn, wok := want.next[id]
					gn, gok := got.next[id]
					if wok != gok || wn != gn {
						t.Fatalf("segment %d workers=%d: next(%d) = (%d, %v), want (%d, %v)",
							si, workers, id, gn, gok, wn, wok)
					}
					wa := want.tattr[id]
					ga := got.tattr[id]
					if wa != ga {
						t.Fatalf("segment %d workers=%d: temporal attr of %d = %+v, want %+v (not byte-identical)",
							si, workers, id, ga, wa)
					}
					wf := want.frameOf[id]
					gf := got.frameOf[id]
					if wf != gf {
						t.Fatalf("segment %d workers=%d: frame of %d = %d, want %d", si, workers, id, gf, wf)
					}
				}
			}
		}
	}
}
