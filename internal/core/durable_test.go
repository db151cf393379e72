package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/query"
	"strgindex/internal/video"
)

// noRotate disables automatic snapshots so a test controls rotation.
func noRotate(dir string) Durability {
	return Durability{Dir: dir, SnapshotOps: -1, SnapshotBytes: -1}
}

// querySig fingerprints a database's k-NN behaviour, exact and Algorithm
// 3: exact bit patterns of the distances and the matched OG identities for
// a few trajectories.
func querySig(t *testing.T, db querier) string {
	t.Helper()
	var sig string
	for _, exact := range []bool{true, false} {
		for _, traj := range []dist.Sequence{
			{{20, 120}, {100, 120}, {180, 120}, {280, 120}},
			{{160, 20}, {160, 120}, {160, 220}},
			{{40, 40}, {120, 100}, {240, 200}},
		} {
			for _, m := range similar(t, db, query.SimilarClause{Trajectory: traj, K: 5, Exact: exact}).Matches {
				sig += fmt.Sprintf("%d:%x;", m.Record.OGID, m.Distance)
			}
			sig += "|"
		}
	}
	return sig
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	stream := miniStream(t, 8, 31)

	s, rec, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLoaded || rec.ReplayedRecords != 0 {
		t.Errorf("fresh dir recovery = %+v", rec)
	}
	for _, seg := range stream.Segments {
		if _, err := s.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	want := querySig(t, s)
	wantStats := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything comes back from WAL replay alone.
	s2, rec2, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.SnapshotLoaded {
		t.Error("no snapshot was written, but recovery loaded one")
	}
	if rec2.ReplayedRecords != len(stream.Segments) {
		t.Errorf("replayed %d records, want %d", rec2.ReplayedRecords, len(stream.Segments))
	}
	if rec2.TornTail {
		t.Error("clean shutdown reported a torn tail")
	}
	if got := s2.Stats(); got != wantStats {
		t.Errorf("stats after recovery:\n  got  %+v\n  want %+v", got, wantStats)
	}
	if got := querySig(t, s2); got != want {
		t.Error("k-NN results differ after WAL-only recovery")
	}

	// And they equal a plain in-memory database fed the same segments.
	ref := Open(DefaultConfig())
	for _, seg := range stream.Segments {
		if _, err := ref.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	if got := querySig(t, ref); got != want {
		t.Error("durable database diverges from in-memory reference")
	}
}

// TestDefaultKNNIdenticalAcrossCopies: under a leaf bound the ingest
// crosses at every commit, Algorithm 3's default k-NN answers (and the
// exact ones) are byte-identical across worker counts {1, 2}, a Save/Load
// copy and a copy recovered by WAL replay alone: the index's shape is a
// function of the commit sequence.
func TestDefaultKNNIdenticalAcrossCopies(t *testing.T) {
	stream := miniStream(t, 16, 37)
	var want string
	for _, workers := range []int{1, 2} {
		label := fmt.Sprintf("workers=%d", workers)
		cfg := DefaultConfig()
		cfg.Concurrency = workers
		cfg.Index.MaxLeafEntries = 4
		dir := t.TempDir()
		s, _, err := OpenDurable(cfg, noRotate(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range stream.Segments {
			if _, err := s.IngestSegment("Mini", seg); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.Clusters < 4*st.Roots {
			t.Fatalf("%s: %d clusters over %d OGs in %d roots — the bound did not split", label, st.Clusters, st.OGs, st.Roots)
		}
		sig := querySig(t, s)
		if want == "" {
			want = sig
		} else if sig != want {
			t.Errorf("%s: k-NN answers differ from workers=1", label)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadShared(&buf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if querySig(t, loaded) != want {
			t.Errorf("%s: Save/Load copy answers differently", label)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		replayed, rec, err := OpenDurable(cfg, noRotate(dir))
		if err != nil {
			t.Fatal(err)
		}
		if rec.SnapshotLoaded || rec.ReplayedRecords != len(stream.Segments) {
			t.Errorf("%s: recovery %+v, want %d replayed records and no snapshot", label, rec, len(stream.Segments))
		}
		if querySig(t, replayed) != want {
			t.Errorf("%s: WAL-replayed copy answers differently", label)
		}
		if err := replayed.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableCheckpointAndRotation(t *testing.T) {
	dir := t.TempDir()
	stream := miniStream(t, 8, 33)
	s, _, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range stream.Segments[:2] {
		if _, err := s.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint folded the first log into the snapshot and removed it.
	if _, err := os.Stat(SnapshotPath(dir)); err != nil {
		t.Fatalf("no snapshot after checkpoint: %v", err)
	}
	if _, err := os.Stat(walPath(dir, 1)); !os.IsNotExist(err) {
		t.Errorf("rotated-out log still present: %v", err)
	}
	// One more op lands in the new log.
	if _, err := s.IngestSegment("Mini", stream.Segments[2]); err != nil {
		t.Fatal(err)
	}
	want := querySig(t, s)
	wantStats := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !rec.SnapshotLoaded {
		t.Error("recovery ignored the snapshot")
	}
	if rec.ReplayedRecords != 1 {
		t.Errorf("replayed %d records on top of snapshot, want 1", rec.ReplayedRecords)
	}
	if got := s2.Stats(); got != wantStats {
		t.Errorf("stats after snapshot+WAL recovery:\n  got  %+v\n  want %+v", got, wantStats)
	}
	if got := querySig(t, s2); got != want {
		t.Error("k-NN results differ after snapshot+WAL recovery")
	}
}

func TestDurableAutomaticRotation(t *testing.T) {
	dir := t.TempDir()
	stream := miniStream(t, 8, 35)
	d := Durability{Dir: dir, SnapshotOps: 2, SnapshotBytes: -1}
	s, _, err := OpenDurable(DefaultConfig(), d)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range stream.Segments {
		if _, err := s.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	want := querySig(t, s)
	// Close waits out the background snapshot, so its outcome and the
	// reopen below are deterministic.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.dur.takeSnapErr(); err != nil {
		t.Fatalf("background snapshot failed: %v", err)
	}
	s2, rec, err := OpenDurable(DefaultConfig(), d)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !rec.SnapshotLoaded {
		t.Error("automatic rotation never wrote a snapshot")
	}
	if rec.ReplayedRecords >= len(stream.Segments) {
		t.Errorf("replayed %d records; snapshot subsumed nothing", rec.ReplayedRecords)
	}
	if got := querySig(t, s2); got != want {
		t.Error("k-NN results differ after automatic-rotation recovery")
	}
}

func TestDurableIngestAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	stream := miniStream(t, 4, 39)
	s, _, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestSegment("Mini", stream.Segments[0]); err == nil {
		t.Error("ingest after Close did not error")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Error("Checkpoint after Close did not error")
	}
}

func TestDurableFailedIngestLeavesWALConsistent(t *testing.T) {
	dir := t.TempDir()
	stream := miniStream(t, 4, 41)
	s, _, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestSegment("Mini", stream.Segments[0]); err != nil {
		t.Fatal(err)
	}
	size := s.WALSize()
	// An invalid segment fails in the build stage, before the WAL hook.
	if _, err := s.IngestSegment("Mini", &video.Segment{}); err == nil {
		t.Fatal("empty segment ingested")
	}
	if got := s.WALSize(); got != size {
		t.Errorf("failed ingest moved the WAL: %d -> %d", size, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.ReplayedRecords != 1 {
		t.Errorf("replayed %d records, want 1", rec.ReplayedRecords)
	}
}

// TestDurableConcurrentIngestAndQuery exercises the durable write path
// under -race: queries stream against one writer goroutine appending to
// the WAL and rotating snapshots.
func TestDurableConcurrentIngestAndQuery(t *testing.T) {
	dir := t.TempDir()
	stream := miniStream(t, 10, 43)
	s, _, err := OpenDurable(DefaultConfig(), Durability{Dir: dir, SnapshotOps: 2, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, seg := range stream.Segments {
			if _, err := s.IngestSegment("Mini", seg); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	q := dist.Sequence{{20, 120}, {160, 120}, {300, 120}}
	for i := 0; i < 50; i++ {
		knn(t, s, q, 3)
		s.Stats()
		s.WALSize()
	}
	wg.Wait()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDurableRequiresDir(t *testing.T) {
	if _, _, err := OpenDurable(DefaultConfig(), Durability{}); err == nil {
		t.Error("OpenDurable without a directory did not error")
	}
}

func TestDurableWALChainGapRefused(t *testing.T) {
	dir := t.TempDir()
	stream := miniStream(t, 4, 45)
	s, _, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestSegment("Mini", stream.Segments[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove the log the snapshot points at and plant a later one: a gap.
	if err := os.Remove(walPath(dir, 2)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir, 3), []byte("STRGWAL\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(DefaultConfig(), noRotate(dir)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("gapped WAL chain: err = %v, want ErrCorrupt", err)
	}
}
