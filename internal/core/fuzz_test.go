package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/video"
)

// wrapSnapshotPayload frames arbitrary bytes as a structurally valid
// snapshot container: correct magic, version, length, and CRC. This gets
// the fuzzer past the checksum gate so it exercises the gob decoder and
// the post-decode index invariant checks, not just the framing.
func wrapSnapshotPayload(payload []byte) []byte {
	out := make([]byte, 0, snapshotHeaderSize+len(payload)+snapshotTrailerSize)
	out = append(out, snapshotMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, snapshotVersion)
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, snapshotCRC))
	return out
}

// FuzzSnapshotLoad feeds arbitrary bytes to Load twice — once raw
// (exercising the container framing) and once wrapped in a valid
// container (exercising the gob decoder and restore path) — and checks
// the recovery contract: Load either returns a *CorruptError matching
// ErrCorrupt, or a database whose index passes its structural
// invariants and answers queries without panicking.
func FuzzSnapshotLoad(f *testing.F) {
	cfg := DefaultConfig()

	// Seed with real snapshots: empty and small-ingested.
	var empty bytes.Buffer
	if err := Open(cfg).Save(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	small := Open(cfg)
	stream, err := video.GenerateStream(video.StreamProfile{
		Name: "Fuzz", Kind: video.KindLab, NumObjects: 6,
		SegmentFrames: 16, ObjectsPerSegment: 2,
	}, 7)
	if err != nil {
		f.Fatal(err)
	}
	if err := small.IngestStream(stream); err != nil {
		f.Fatal(err)
	}
	var filled bytes.Buffer
	if err := small.Save(&filled); err != nil {
		f.Fatal(err)
	}
	f.Add(filled.Bytes())
	f.Add(filled.Bytes()[:len(filled.Bytes())-5]) // truncated trailer
	f.Add(snapshotMagic[:])                       // header only
	f.Add([]byte{})

	check := func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data), cfg)
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				return
			}
			// Post-decode restore failures (impossible snapshot shapes) are
			// also acceptable refusals; only panics and silent garbage are
			// bugs.
			return
		}
		if err := db.Index().CheckInvariants(); err != nil {
			t.Fatalf("loaded database fails index invariants: %v", err)
		}
		q := dist.Sequence{{10, 10}, {40, 40}}
		if got := knnExact(t, db, q, 3); len(got) > db.Index().Len() {
			t.Fatalf("query returned %d matches from %d items", len(got), db.Index().Len())
		}
		st := db.Stats()
		if st.OGs != db.Index().Len() {
			t.Fatalf("Stats.OGs = %d, index holds %d", st.OGs, db.Index().Len())
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the input well above the seed snapshots (~5 KB) but low
		// enough that a mutated payload cannot smuggle in multi-thousand-
		// point sequences — leaf-key verification runs a quadratic DP per
		// member, and unbounded inputs drop fuzz throughput to single
		// digits per second.
		if len(data) > 1<<13 {
			t.Skip("oversized input")
		}
		check(t, data)
		check(t, wrapSnapshotPayload(data))
	})
}
