package core

import (
	"bytes"
	"testing"
)

// TestCommitDelta ingests a stream with the delta hook installed and checks
// that the deltas exactly tile the database: every OG appears in exactly one
// delta, OGIDs are dense and monotone across deltas, and the per-delta
// records match the retained corpus.
func TestCommitDelta(t *testing.T) {
	db := Open(DefaultConfig())
	var deltas []CommitDelta
	db.OnCommitDelta(func(d CommitDelta) { deltas = append(deltas, d) })
	stream := miniStream(t, 12, 7)
	if err := db.IngestStream(stream); err != nil {
		t.Fatal(err)
	}
	if len(deltas) != len(stream.Segments) {
		t.Fatalf("got %d deltas for %d segments", len(deltas), len(stream.Segments))
	}
	next := 0
	for i, d := range deltas {
		if d.Stream != "Mini" {
			t.Errorf("delta %d stream = %q", i, d.Stream)
		}
		if d.Segment != stream.Segments[i].Name {
			t.Errorf("delta %d segment = %q, want %q", i, d.Segment, stream.Segments[i].Name)
		}
		if len(d.Records) != len(d.OGs) {
			t.Fatalf("delta %d: %d records vs %d OGs", i, len(d.Records), len(d.OGs))
		}
		for j, r := range d.Records {
			if r.OGID != next {
				t.Fatalf("delta %d record %d OGID = %d, want %d (dense monotone)", i, j, r.OGID, next)
			}
			if db.records[r.OGID] != r {
				t.Errorf("delta %d record %d differs from retained corpus", i, j)
			}
			if db.ogs[r.OGID] != d.OGs[j] {
				t.Errorf("delta %d OG %d is not the retained graph", i, j)
			}
			next++
		}
	}
	if next != db.Stats().OGs {
		t.Errorf("deltas covered %d OGs, database holds %d", next, db.Stats().OGs)
	}
}

// TestSegmentsIn checks the per-stream commit counter, including across a
// save/load round trip — a feed's crash reconciliation depends on the count
// surviving restart.
func TestSegmentsIn(t *testing.T) {
	db := Open(DefaultConfig())
	stream := miniStream(t, 8, 9)
	if err := db.IngestStream(stream); err != nil {
		t.Fatal(err)
	}
	if got := db.SegmentsIn("Mini"); got != len(stream.Segments) {
		t.Errorf("SegmentsIn(Mini) = %d, want %d", got, len(stream.Segments))
	}
	if got := db.SegmentsIn("absent"); got != 0 {
		t.Errorf("SegmentsIn(absent) = %d, want 0", got)
	}
	other := miniStream(t, 4, 10)
	if _, err := db.IngestSegment("cam-2", other.Segments[0]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.SegmentsIn("Mini"); got != len(stream.Segments) {
		t.Errorf("after load SegmentsIn(Mini) = %d, want %d", got, len(stream.Segments))
	}
	if got := loaded.SegmentsIn("cam-2"); got != 1 {
		t.Errorf("after load SegmentsIn(cam-2) = %d, want 1", got)
	}
}

// TestSnapshotBytesDeterministicWithStreams guards the replication digests:
// two databases built by the same ingest sequence must snapshot to identical
// bytes even with multiple streams in the count table.
func TestSnapshotBytesDeterministicWithStreams(t *testing.T) {
	build := func() []byte {
		db := Open(DefaultConfig())
		stream := miniStream(t, 6, 11)
		for i, seg := range stream.Segments {
			name := []string{"cam-b", "cam-a", "cam-c"}[i%3]
			if _, err := db.IngestSegment(name, seg); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("snapshot bytes differ between identical ingest sequences")
	}
}
