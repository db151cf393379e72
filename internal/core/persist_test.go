package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/faultfs"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := Open(DefaultConfig())
	if err := db.IngestStream(miniStream(t, 10, 21)); err != nil {
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
	a, b := db.Stats(), loaded.Stats()
	if a != b {
		t.Errorf("stats differ after round trip:\n  saved:  %+v\n  loaded: %+v", a, b)
	}
	// Queries must return identical results.
	q := make(dist.Sequence, 10)
	for i := range q {
		q[i] = dist.Vec{20 + float64(i)*28, 120}
	}
	got1 := knn(t, db, q, 3)
	got2 := knn(t, loaded, q, 3)
	if len(got1) != len(got2) {
		t.Fatalf("result counts differ: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i].Record.OGID != got2[i].Record.OGID || got1[i].Distance != got2[i].Distance {
			t.Errorf("result %d differs: %+v vs %+v", i, got1[i], got2[i])
		}
	}
	if err := loaded.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadGarbageFails(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("not a gob stream, not a snapshot either")), DefaultConfig())
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("loading garbage: err = %v, want ErrCorrupt", err)
	}
}

func TestLoadEmptyDatabase(t *testing.T) {
	db := Open(DefaultConfig())
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats().OGs != 0 {
		t.Errorf("empty round trip has %d OGs", loaded.Stats().OGs)
	}
}

// savedDB returns the serialized container of a small ingested database.
func savedDB(t *testing.T) []byte {
	t.Helper()
	db := Open(DefaultConfig())
	if err := db.IngestStream(miniStream(t, 6, 9)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadEmptyFileIsCorrupt(t *testing.T) {
	_, err := Load(bytes.NewReader(nil), DefaultConfig())
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Error("CorruptError does not match ErrCorrupt")
	}
}

func TestLoadTruncatedIsCorrupt(t *testing.T) {
	data := savedDB(t)
	// Every kind of truncation: inside the header, inside the payload,
	// inside the trailer, and one byte short.
	for _, cut := range []int{1, snapshotHeaderSize - 2, len(data) / 2, len(data) - snapshotTrailerSize + 3, len(data) - 1} {
		_, err := Load(bytes.NewReader(data[:cut]), DefaultConfig())
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut at %d/%d: err = %v, want ErrCorrupt", cut, len(data), err)
		}
	}
}

func TestLoadBitFlipIsCorrupt(t *testing.T) {
	data := savedDB(t)
	// Flip one bit in the payload, in the stored CRC, and in the magic.
	for _, off := range []int{0, snapshotHeaderSize + 10, len(data)/2 + 1, len(data) - 2} {
		flipped := bytes.Clone(data)
		flipped[off] ^= 0x10
		_, err := Load(bytes.NewReader(flipped), DefaultConfig())
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d/%d: err = %v, want ErrCorrupt", off, len(data), err)
		}
	}
}

func TestLoadTrailingGarbageIsCorrupt(t *testing.T) {
	data := append(savedDB(t), []byte("extra")...)
	if _, err := Load(bytes.NewReader(data), DefaultConfig()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing garbage: err = %v, want ErrCorrupt", err)
	}
}

func TestSaveFileLoadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.strg")
	db := Open(DefaultConfig())
	if err := db.IngestStream(miniStream(t, 6, 11)); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFile(nil, path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind: %v", err)
	}
	loaded, err := LoadFile(nil, path, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats() != db.Stats() {
		t.Errorf("stats differ after file round trip")
	}

	// A torn rewrite must leave the previous file intact.
	fsys := faultfs.NewInject(faultfs.OS{}, faultfs.Config{WriteBudget: 64, FailSyncAfter: -1})
	if err := db.SaveFile(fsys, path); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn SaveFile err = %v", err)
	}
	if _, err := LoadFile(nil, path, DefaultConfig()); err != nil {
		t.Errorf("previous snapshot damaged by torn rewrite: %v", err)
	}
}

// TestV1SnapshotRefused: a version-1 container — nested per-record
// sequences, the form no build has written since the packed columnar
// encoding — is refused with a typed *CorruptError naming the version:
// never a panic, never a silently empty database. The header version is
// not covered by the CRC, so rewriting it is all a test needs. Version 2
// (the same payload shape without the vector tier) still loads, and a
// version beyond the writer's is refused like one before the reader's.
func TestV1SnapshotRefused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Index.MaxLeafEntries = 8
	cfg.Index.NumClusters = 2

	old := Open(cfg)
	for _, seg := range miniStream(t, 6, 201).Segments {
		if _, err := old.IngestSegment("v", seg); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := old.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if v := binary.LittleEndian.Uint32(data[8:]); v != snapshotVersion {
		t.Fatalf("saved version = %d, want %d", v, snapshotVersion)
	}

	for _, v := range []uint32{0, 1, snapshotVersion + 1} {
		binary.LittleEndian.PutUint32(data[8:], v)
		db, err := Load(bytes.NewReader(data), cfg)
		var ce *CorruptError
		if db != nil || !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d: Load = (%v, %v), want a *CorruptError", v, db, err)
		}
		if want := "unsupported snapshot version"; !strings.Contains(ce.Reason, want) {
			t.Fatalf("version %d: reason %q does not say %q", v, ce.Reason, want)
		}
	}

	binary.LittleEndian.PutUint32(data[8:], 2)
	db, err := Load(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatalf("v2 container rejected: %v", err)
	}
	if got, want := db.Stats(), old.Stats(); got != want {
		t.Fatalf("v2 load: stats %+v, want %+v", got, want)
	}
}
