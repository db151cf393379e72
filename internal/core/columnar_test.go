package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"strgindex/internal/dist"
)

// TestV1SnapshotStillLoads: a version-1 container — nested per-record
// Seqs, written before the packed columnar encoding existed — must load
// into a current database and answer queries identically. No writer emits
// that form any more, so the test unpacks the image's column blocks back
// into per-record sequences: gob omits the then-absent
// ColData/ColLens/ColDim fields, which is exactly the v1 payload shape,
// and the header version is rewritten to 1, which the CRC does not cover.
func TestV1SnapshotStillLoads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Index.MaxLeafEntries = 8
	cfg.Index.NumClusters = 2

	old := Open(cfg)
	for i, seed := range []int64{201, 202} {
		stream := miniStream(t, 6, seed)
		for _, seg := range stream.Segments {
			if _, err := old.IngestSegment("v1", seg); err != nil {
				t.Fatalf("ingest stream %d: %v", i, err)
			}
		}
	}
	img := old.image()
	for ri := range img.Index.Roots {
		for ci := range img.Index.Roots[ri].Clusters {
			cl := &img.Index.Roots[ri].Clusters[ci]
			off := 0
			for _, n := range cl.ColLens {
				seq := make(dist.Sequence, n)
				for r := range seq {
					seq[r] = dist.Vec(cl.ColData[off : off+cl.ColDim])
					off += cl.ColDim
				}
				cl.Seqs = append(cl.Seqs, seq)
			}
			cl.ColData, cl.ColLens, cl.ColDim = nil, nil, 0
		}
	}
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, img); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if v := binary.LittleEndian.Uint32(data[8:]); v != snapshotVersion {
		t.Fatalf("saved version = %d, want %d", v, snapshotVersion)
	}
	binary.LittleEndian.PutUint32(data[8:], 1)

	db, err := Load(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatalf("v1 container rejected: %v", err)
	}
	q := toSeq([][2]float64{{20, 20}, {60, 60}, {100, 100}})
	want := knnExact(t, old, q, 5)
	got := knnExact(t, db, q, 5)
	if len(got) != len(want) {
		t.Fatalf("loaded db returned %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Distance != want[i].Distance || got[i].Record != want[i].Record {
			t.Fatalf("match %d differs after v1 load: %+v vs %+v", i, got[i], want[i])
		}
	}

	// A version beyond the writer's must still be refused.
	binary.LittleEndian.PutUint32(data[8:], snapshotVersion+1)
	if _, err := Load(bytes.NewReader(data), cfg); err == nil {
		t.Fatal("future snapshot version accepted")
	}
}
