package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"strgindex/internal/faultfs"
	"strgindex/internal/obs"
	"strgindex/internal/strg"
	"strgindex/internal/video"
	"strgindex/internal/wal"
)

// pipelineRuns reads how many segments the build pipeline has processed in
// this process: strg.Build observes each of its two phases once per segment.
func pipelineRuns() [2]int64 {
	return [2]int64{
		obs.Default.Histogram("strg_build_rag_seconds", "", nil, nil).Count(),
		obs.Default.Histogram("strg_build_track_seconds", "", nil, nil).Count(),
	}
}

// loggedPrimary ingests the mini stream into a durable database in a fresh
// directory and "kills" it — no Checkpoint — so the state lives in the WAL
// alone. It returns the directory, the WAL frames and the answers.
func loggedPrimary(t *testing.T, seed int64) (dir string, frames []WALFrame, sig string) {
	t.Helper()
	dir = t.TempDir()
	stream := miniStream(t, 8, seed)
	s, _, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	before := pipelineRuns()
	for _, seg := range stream.Segments {
		if _, err := s.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(len(stream.Segments))
	if got := pipelineRuns(); got != [2]int64{before[0] + n, before[1] + n} {
		t.Fatalf("live ingest of %d segments moved the build counts %v -> %v; the counters no longer see the pipeline", n, before, got)
	}
	frames, next, end, err := s.WALFrames(WALPos{Seq: 1, Off: wal.HeaderSize}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(stream.Segments) || next != end {
		t.Fatalf("WALFrames returned %d frames to %v (end %v), want %d", len(frames), next, end, len(stream.Segments))
	}
	sig = querySig(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, frames, sig
}

// TestRecoveryDoesNotRebuild: crash replay hands each logged record to the
// commit — it never runs RAG construction, tracking or decomposition.
func TestRecoveryDoesNotRebuild(t *testing.T) {
	dir, frames, want := loggedPrimary(t, 61)
	before := pipelineRuns()
	s, rec, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec.ReplayedRecords != len(frames) {
		t.Fatalf("replayed %d records, want %d", rec.ReplayedRecords, len(frames))
	}
	if got := pipelineRuns(); got != before {
		t.Errorf("replaying %d records ran the build pipeline: counts %v -> %v", len(frames), before, got)
	}
	if got := querySig(t, s); got != want {
		t.Error("answers differ after replay")
	}
}

// TestReplicaApplyDoesNotRebuild: the same for a replica applying the
// primary's frames.
func TestReplicaApplyDoesNotRebuild(t *testing.T) {
	_, frames, want := loggedPrimary(t, 63)
	r, _, err := OpenReplica(DefaultConfig(), noRotate(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	before := pipelineRuns()
	for _, f := range frames {
		if err := r.ApplyReplicated(f.Payload, f.Next); err != nil {
			t.Fatal(err)
		}
	}
	if got := pipelineRuns(); got != before {
		t.Errorf("applying %d records ran the build pipeline: counts %v -> %v", len(frames), before, got)
	}
	if got := querySig(t, r); got != want {
		t.Error("replica answers differ from the primary's")
	}
}

// legacyWALOp is the record shape binaries before the commit record
// logged: the raw segment, as a bare gob stream.
type legacyWALOp struct {
	Stream  string
	Segment *video.Segment
	Shard   int
	SrcSeq  uint64
	SrcOff  int64
}

// TestLegacyWALRecordRefused: gob drops stream fields the receiver lacks,
// so an untagged legacy payload decoded into a commit record would commit
// an empty segment. Both consumers must refuse it with ErrWALFormat — not
// ErrCorrupt, the file is intact — and commit nothing.
func TestLegacyWALRecordRefused(t *testing.T) {
	var buf bytes.Buffer
	op := legacyWALOp{Stream: "Mini", Segment: miniStream(t, 4, 65).Segments[0], Shard: 1}
	if err := gob.NewEncoder(&buf).Encode(&op); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrWALFormat) || errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrWALFormat and not ErrCorrupt", what, err)
		}
	}

	// Crash replay: a log left by the old binary.
	dir := t.TempDir()
	log, err := wal.Create(faultfs.OS{}, walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	s, _, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err == nil {
		s.Close()
	}
	refused("OpenDurable over a legacy log", err)

	// Replica apply: a frame streamed by an old primary.
	r, _, err := OpenReplica(DefaultConfig(), noRotate(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	size := r.WALSize()
	refused("ApplyReplicated of a legacy frame", r.ApplyReplicated(payload, WALPos{Seq: 1, Off: wal.HeaderSize + 1}))
	if got := r.Stats(); got.Segments != 0 || got.OGs != 0 || r.WALSize() != size || !r.ReplicaPos().IsZero() {
		t.Errorf("refused frame left a trace: stats %+v, wal %d -> %d, pos %v", got, size, r.WALSize(), r.ReplicaPos())
	}
}

// TestIngestBuiltMatchesIngestSegment: committing an STRG built under the
// database's configuration is the commit IngestSegment of the same frames
// makes, byte for byte, and a replica refuses it like any ingest.
func TestIngestBuiltMatchesIngestSegment(t *testing.T) {
	stream := miniStream(t, 4, 67)
	built, ingested := OpenShared(DefaultConfig()), OpenShared(DefaultConfig())
	for _, seg := range stream.Segments {
		s, err := strg.Build(seg, built.STRGConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := built.IngestBuilt("Mini", s); err != nil {
			t.Fatal(err)
		}
		if _, err := ingested.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	var a, b bytes.Buffer
	if err := built.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := ingested.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("IngestBuilt and IngestSegment committed different databases")
	}

	r, _, err := OpenReplica(DefaultConfig(), noRotate(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := strg.Build(stream.Segments[0], r.STRGConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.IngestBuilt("Mini", s); !errors.Is(err, ErrReplica) || r.Stats().Segments != 0 {
		t.Errorf("replica IngestBuilt: err = %v, %d segments", err, r.Stats().Segments)
	}
}
