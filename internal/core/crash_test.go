package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"strgindex/internal/faultfs"
	"strgindex/internal/video"
	"strgindex/internal/wal"
)

// TestCrashRecoveryMatrix is the durability property test: for every
// interesting prefix length of the write-ahead log — record boundaries
// and tears inside the length prefix, the CRC, the payload, and one byte
// short of commit — a crash at that point recovers to a database whose
// k-NN results are byte-identical to one that ingested only the
// operations that were acknowledged before the crash.
func TestCrashRecoveryMatrix(t *testing.T) {
	stream := miniStream(t, 6, 61)
	n := len(stream.Segments)
	if n < 2 {
		t.Fatalf("need at least 2 segments, got %d", n)
	}

	refSigs := make([]string, n+1)
	refStats := make([]Stats, n+1)
	{
		db := Open(DefaultConfig())
		refSigs[0], refStats[0] = querySig(t, db), db.Stats()
		for k, seg := range stream.Segments {
			if _, err := db.IngestSegment("Mini", seg); err != nil {
				t.Fatal(err)
			}
			refSigs[k+1], refStats[k+1] = querySig(t, db), db.Stats()
		}
	}

	// A clean baseline run records the WAL offset at which each operation
	// became durable; boundaries[k] is the file size once op k committed
	// (boundaries[0] is the file header).
	boundaries := make([]int64, n+1)
	{
		s, _, err := OpenDurable(DefaultConfig(), noRotate(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		boundaries[0] = s.WALSize()
		for k, seg := range stream.Segments {
			if _, err := s.IngestSegment("Mini", seg); err != nil {
				t.Fatal(err)
			}
			boundaries[k+1] = s.WALSize()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for _, cut := range faultfs.CrashPoints(boundaries) {
		acked := 0
		for acked < n && boundaries[acked+1] <= cut {
			acked++
		}

		// Run against a disk that dies after exactly `cut` durable bytes.
		dir := t.TempDir()
		fsys := faultfs.NewInject(faultfs.OS{}, faultfs.Config{WriteBudget: cut, FailSyncAfter: -1})
		s, _, err := OpenDurable(DefaultConfig(), Durability{Dir: dir, FS: fsys, SnapshotOps: -1, SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		got := 0
		var ingestErr error
		for _, seg := range stream.Segments {
			if _, err := s.IngestSegment("Mini", seg); err != nil {
				ingestErr = err
				break
			}
			got++
		}
		_ = s.Close() // the process "dies"; errors on the dead disk are moot
		if got != acked {
			t.Fatalf("cut %d: %d ops acknowledged, want %d", cut, got, acked)
		}
		if got < n && !errors.Is(ingestErr, faultfs.ErrInjected) {
			t.Fatalf("cut %d: ingest failed with %v, want injected fault", cut, ingestErr)
		}

		// A fresh process recovers from the real on-disk state.
		r, rec, err := OpenDurable(DefaultConfig(), noRotate(dir))
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
		}
		if rec.ReplayedRecords != acked {
			t.Errorf("cut %d: replayed %d records, want %d", cut, rec.ReplayedRecords, acked)
		}
		if wantTorn := cut > boundaries[acked]; rec.TornTail != wantTorn {
			t.Errorf("cut %d: TornTail = %v, want %v", cut, rec.TornTail, wantTorn)
		}
		if sig := querySig(t, r); sig != refSigs[acked] {
			t.Errorf("cut %d: recovered k-NN results differ from the %d-op reference", cut, acked)
		}
		if st := r.Stats(); st != refStats[acked] {
			t.Errorf("cut %d: recovered stats %+v, want %+v", cut, st, refStats[acked])
		}

		// The recovered database must keep working: ingesting the segments
		// the crash swallowed lands on the full-database answer.
		for _, seg := range stream.Segments[acked:] {
			if _, err := r.IngestSegment("Mini", seg); err != nil {
				t.Fatalf("cut %d: ingest after recovery: %v", cut, err)
			}
		}
		if sig := querySig(t, r); sig != refSigs[n] {
			t.Errorf("cut %d: catch-up after recovery diverges from reference", cut)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestCrashDuringSnapshotWrite kills the disk while a checkpoint is
// writing the snapshot: the torn temporary file must be swept and the
// previous snapshot + full log chain stay authoritative.
func TestCrashDuringSnapshotWrite(t *testing.T) {
	stream := miniStream(t, 6, 63)
	refSigs, _ := crashRefs(t, stream.Segments, "Mini")
	n := len(stream.Segments)

	// Clean baseline: bytes the first two appends cost.
	var s2size int64
	{
		s, _, err := OpenDurable(DefaultConfig(), noRotate(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range stream.Segments[:2] {
			if _, err := s.IngestSegment("Mini", seg); err != nil {
				t.Fatal(err)
			}
		}
		s2size = s.WALSize()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Budget: both appends and the rotated-in log's header fit; the
	// snapshot body tears partway.
	budget := s2size + int64(wal.HeaderSize) + 100
	dir := t.TempDir()
	fsys := faultfs.NewInject(faultfs.OS{}, faultfs.Config{WriteBudget: budget, FailSyncAfter: -1})
	s, _, err := OpenDurable(DefaultConfig(), Durability{Dir: dir, FS: fsys, SnapshotOps: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range stream.Segments[:2] {
		if _, err := s.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a dying disk reported success")
	}
	_ = s.Close()
	if !fsys.Crashed() {
		t.Fatal("fault budget was never reached")
	}

	r, rec, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatalf("recovery after torn snapshot: %v", err)
	}
	if rec.SnapshotLoaded {
		t.Error("a torn snapshot was loaded")
	}
	if rec.ReplayedRecords != 2 || rec.ReplayedLogs != 2 {
		t.Errorf("replayed %d records over %d logs, want 2 over 2", rec.ReplayedRecords, rec.ReplayedLogs)
	}
	if sig := querySig(t, r); sig != refSigs[2] {
		t.Error("recovered k-NN results differ from the 2-op reference")
	}
	if _, err := os.Stat(SnapshotPath(dir) + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("torn snapshot temporary not swept: %v", err)
	}
	for _, seg := range stream.Segments[2:] {
		if _, err := r.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	if sig := querySig(t, r); sig != refSigs[n] {
		t.Error("catch-up after torn snapshot diverges from reference")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAroundRotationStates reconstructs the two on-disk states a
// crash can leave between "snapshot renamed into place" and "old logs
// removed", and proves both recover to the same database.
func TestCrashAroundRotationStates(t *testing.T) {
	stream := miniStream(t, 6, 65)
	refSigs, _ := crashRefs(t, stream.Segments, "Mini")
	n := len(stream.Segments)

	dir := t.TempDir()
	s, _, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range stream.Segments[:2] {
		if _, err := s.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	// Keep the pre-rotation log so we can resurrect it.
	wal1, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range stream.Segments[2:] {
		if _, err := s.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// State A — crash after the snapshot rename, before the subsumed log
	// was removed: snapshot + stale wal-1 + wal-2.
	t.Run("AfterRename", func(t *testing.T) {
		d := copyDir(t, dir)
		if err := os.WriteFile(walPath(d, 1), wal1, 0o644); err != nil {
			t.Fatal(err)
		}
		r, rec, err := OpenDurable(DefaultConfig(), noRotate(d))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !rec.SnapshotLoaded || rec.ReplayedRecords != n-2 {
			t.Errorf("recovery = %+v, want snapshot + %d replayed", rec, n-2)
		}
		if _, err := os.Stat(walPath(d, 1)); !os.IsNotExist(err) {
			t.Errorf("stale log not removed: %v", err)
		}
		if sig := querySig(t, r); sig != refSigs[n] {
			t.Error("recovered k-NN results differ from reference")
		}
	})

	// State B — crash before the snapshot rename: no snapshot, full
	// wal-1 + wal-2 chain.
	t.Run("BeforeRename", func(t *testing.T) {
		d := copyDir(t, dir)
		if err := os.WriteFile(walPath(d, 1), wal1, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(SnapshotPath(d)); err != nil {
			t.Fatal(err)
		}
		r, rec, err := OpenDurable(DefaultConfig(), noRotate(d))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if rec.SnapshotLoaded || rec.ReplayedRecords != n {
			t.Errorf("recovery = %+v, want no snapshot + %d replayed", rec, n)
		}
		if sig := querySig(t, r); sig != refSigs[n] {
			t.Error("recovered k-NN results differ from reference")
		}
	})

	// Temporary-file residue from an interrupted atomic write is swept.
	t.Run("TmpResidue", func(t *testing.T) {
		d := copyDir(t, dir)
		for _, tmp := range []string{SnapshotPath(d) + ".tmp", walPath(d, 9) + ".tmp"} {
			if err := os.WriteFile(tmp, []byte("partial garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, _, err := OpenDurable(DefaultConfig(), noRotate(d))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for _, tmp := range []string{SnapshotPath(d) + ".tmp", walPath(d, 9) + ".tmp"} {
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Errorf("%s not swept: %v", tmp, err)
			}
		}
		if sig := querySig(t, r); sig != refSigs[n] {
			t.Error("recovered k-NN results differ from reference")
		}
	})
}

// TestCrashWALBitFlipRefused proves a flipped bit in a committed WAL
// record is detected by the record checksum and refused — never silently
// replayed.
func TestCrashWALBitFlipRefused(t *testing.T) {
	stream := miniStream(t, 4, 67)
	dir := t.TempDir()
	s, _, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range stream.Segments {
		if _, err := s.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// On-media corruption: rewrite the file with one bit flipped.
	path := walPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[wal.HeaderSize+12] ^= 0x04
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(DefaultConfig(), noRotate(dir)); !errors.Is(err, wal.ErrCorrupt) {
		t.Errorf("on-media flip: err = %v, want wal.ErrCorrupt", err)
	}

	// Read-path corruption: the disk returns a flipped byte on read.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := faultfs.NewInject(faultfs.OS{}, faultfs.Config{
		WriteBudget:   -1,
		FailSyncAfter: -1,
		Flips:         []faultfs.BitFlip{{Name: filepath.Base(path), Offset: wal.HeaderSize + 20, Mask: 0x80}},
	})
	_, _, err = OpenDurable(DefaultConfig(), Durability{Dir: dir, FS: fsys, SnapshotOps: -1, SnapshotBytes: -1})
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Errorf("read-path flip: err = %v, want wal.ErrCorrupt", err)
	}

	// Pristine bytes still recover.
	r, rec, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rec.ReplayedRecords != len(stream.Segments) {
		t.Errorf("replayed %d, want %d", rec.ReplayedRecords, len(stream.Segments))
	}
}

// TestCrashSnapshotBitFlipRefused is the same property for the snapshot
// container checksum.
func TestCrashSnapshotBitFlipRefused(t *testing.T) {
	stream := miniStream(t, 4, 69)
	dir := t.TempDir()
	s, _, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range stream.Segments {
		if _, err := s.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := SnapshotPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(DefaultConfig(), noRotate(dir)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("snapshot flip: err = %v, want ErrCorrupt", err)
	}

	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, rec, err := OpenDurable(DefaultConfig(), noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !rec.SnapshotLoaded {
		t.Error("pristine snapshot not loaded")
	}
}

// crashRefs builds the per-prefix reference signatures used by the
// rotation tests.
func crashRefs(t *testing.T, segs []*video.Segment, stream string) ([]string, []Stats) {
	t.Helper()
	sigs := make([]string, len(segs)+1)
	stats := make([]Stats, len(segs)+1)
	db := Open(DefaultConfig())
	sigs[0], stats[0] = querySig(t, db), db.Stats()
	for k, seg := range segs {
		if _, err := db.IngestSegment(stream, seg); err != nil {
			t.Fatal(err)
		}
		sigs[k+1], stats[k+1] = querySig(t, db), db.Stats()
	}
	return sigs, stats
}

// copyDir clones a data directory into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
