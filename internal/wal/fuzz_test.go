package wal_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"strgindex/internal/faultfs"
	"strgindex/internal/wal"
)

// fuzzFrame builds one valid record frame for seeding.
func fuzzFrame(payload []byte) []byte {
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(frame[8:], payload)
	return frame
}

// FuzzWALScan feeds arbitrary bytes to the replay scanner and checks its
// contract: it never panics, it either reports corruption (ErrCorrupt) or
// returns a consistent Result — the committed prefix ends at a record
// boundary, a torn tail starts exactly there, and rescanning the
// committed prefix is idempotent (same records, nothing torn). This is
// the property recovery depends on: Scan → truncate to CommittedSize →
// Scan must converge.
func FuzzWALScan(f *testing.F) {
	valid := append([]byte{}, wal.Magic[:]...)
	valid = append(valid, fuzzFrame([]byte("first record"))...)
	valid = append(valid, fuzzFrame([]byte("second"))...)
	f.Add([]byte{})
	f.Add(wal.Magic[:])
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte{}, valid...)
	flipped[wal.HeaderSize+10] ^= 0x40 // corrupt first payload
	f.Add(flipped)
	f.Add(append(append([]byte{}, wal.Magic[:]...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // absurd length

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		applied := 0
		res, err := wal.Scan(faultfs.OS{}, path, func(_ int64, p []byte) error { applied++; return nil })
		if err != nil {
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("Scan error is not corruption: %v", err)
			}
			// Even a refused log reports how far the intact prefix ran.
			if res.CommittedSize < 0 || res.CommittedSize > int64(len(data)) {
				t.Fatalf("corrupt scan: CommittedSize %d outside [0, %d]", res.CommittedSize, len(data))
			}
			return
		}
		if res.Records != applied {
			t.Fatalf("Records = %d but apply ran %d times", res.Records, applied)
		}
		if res.CommittedSize < 0 || res.CommittedSize > int64(len(data)) {
			t.Fatalf("CommittedSize %d outside [0, %d]", res.CommittedSize, len(data))
		}
		if res.Torn {
			if res.CommittedSize == int64(len(data)) {
				t.Fatal("Torn with nothing after the committed prefix")
			}
		}
		// Idempotence: the committed prefix must rescan clean — exactly the
		// state recovery leaves behind after truncating the tear.
		prefix := filepath.Join(dir, "prefix.log")
		if err := os.WriteFile(prefix, data[:res.CommittedSize], 0o644); err != nil {
			t.Fatal(err)
		}
		res2, err := wal.Scan(faultfs.OS{}, prefix, func(_ int64, p []byte) error { return nil })
		if err != nil {
			t.Fatalf("rescan of committed prefix failed: %v", err)
		}
		if res2.Torn || res2.Records != res.Records || res2.CommittedSize != res.CommittedSize {
			t.Fatalf("rescan of committed prefix diverged: %+v, want %+v", res2, res)
		}
	})
}
