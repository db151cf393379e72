package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"strgindex/internal/embed"
	"strgindex/internal/faultfs"
	"strgindex/internal/index"
	"strgindex/internal/strg"
)

// Snapshot container format. A saved database is
//
//	[8]byte magic "STRGSNP\x01" | uint32 LE version | gob payload |
//	uint64 LE payload length | uint32 LE CRC32C(payload)
//
// The trailer makes truncation detectable (the length never matches) and
// the checksum makes bit rot detectable; Load refuses both with a
// *CorruptError instead of handing gob a poisoned stream.
var snapshotMagic = [8]byte{'S', 'T', 'R', 'G', 'S', 'N', 'P', 1}

const (
	// snapshotVersion is the version stamped into new snapshots; files
	// from snapshotMinVersion on load. Version 2 is the packed columnar
	// encoding of leaf sequences (index.ClusterSnapshot.ColData/ColLens/
	// ColDim), the only one the index restores. Version 3 added the
	// optional approximate-tier vector index (dbImage.Vec); version 2
	// files load with Vec nil and the tier — when enabled — is rebuilt
	// from the retained OGs, bit-identically (the embedding and the
	// one-shot IVF training are both deterministic in ingest order).
	snapshotVersion     = 3
	snapshotMinVersion  = 2
	snapshotHeaderSize  = 12 // magic + version
	snapshotTrailerSize = 12 // payload length + CRC32C
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel matched (via errors.Is) by every error Load
// reports for a damaged database file: truncation, bad magic, checksum
// mismatch, or an undecodable payload. A file that fails this way must be
// restored from a snapshot or rebuilt by re-ingesting; see the recovery
// runbook in the README.
var ErrCorrupt = errors.New("core: corrupt database file")

// CorruptError carries where and why a database file was rejected.
type CorruptError struct {
	// Offset is the byte offset the damage was detected at (0 for header
	// problems, the payload start for checksum and decode failures).
	Offset int64
	// Reason is a human-readable diagnosis.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("core: corrupt database file at offset %d: %s", e.Offset, e.Reason)
}

// Is matches ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// dbImage is the gob-encoded form of a VideoDB.
type dbImage struct {
	Segments  int
	OGCount   int
	STRGBytes int
	RawBytes  int
	Index     index.Snapshot[ClipRecord]
	// OGs and Records are the retained Object Graphs and their clip
	// records in ingest order — the corpus predicate queries (the where
	// tree) filter and the source the trajectory R-tree is rebuilt from
	// at load. Files written before these fields existed decode with both
	// nil: similarity queries still work off the index, predicate queries
	// see an empty corpus (the old behavior). Still container version 2 —
	// gob tolerates the added fields in both directions.
	OGs     []*strg.OG
	Records []ClipRecord
	// Vec is the approximate tier's IVF index (nil when the tier was
	// disabled in the saving process, and in pre-v3 files). Loading under
	// a tier-enabled Config prefers it — the snapshot's own trained
	// centroids win over the loading Config's IVF geometry — and falls
	// back to a deterministic rebuild from OGs when absent. A tier-
	// disabled load ignores it.
	Vec *embed.Snapshot
	// StreamSegs is the per-stream committed-segment count, flattened into
	// a stream-name-sorted slice so snapshot bytes stay deterministic (a
	// gob map would encode in random order and break the replication
	// digests' byte-identity). Pre-existing files decode with it nil, which
	// restores an empty count table — SegmentsIn then reports zero, exactly
	// what those databases reported before the field existed.
	StreamSegs []streamSegCount
	// WALSeq is the sequence number of the first write-ahead log NOT
	// covered by this snapshot; recovery replays logs from WALSeq on.
	// Zero for databases saved outside a durable directory.
	WALSeq uint64
	// SrcSeq/SrcOff are set only on a replica (and in replication
	// bootstrap snapshots): the primary WAL position immediately after
	// the last operation this image covers — the position replication
	// resumes from. Zero on a primary, so gob omits them and primary
	// snapshot bytes are unchanged.
	SrcSeq uint64
	SrcOff int64
}

// streamSegCount is one stream's committed-segment count.
type streamSegCount struct {
	Stream string
	Count  int
}

// image captures the persistable state. Asynchronous split evaluations
// are quiesced first so the image is a settled tree, not a moving target
// (the snapshot itself is shard-count independent either way).
func (db *VideoDB) image() dbImage {
	db.tree.Quiesce()
	img := dbImage{
		Segments:  db.segments,
		OGCount:   db.ogCount,
		STRGBytes: db.strgBytes,
		RawBytes:  db.rawBytes,
		Index:     db.tree.Snapshot(),
		OGs:       db.ogs,
		Records:   db.records,
	}
	for stream, n := range db.streamSegs {
		img.StreamSegs = append(img.StreamSegs, streamSegCount{Stream: stream, Count: n})
	}
	sort.Slice(img.StreamSegs, func(i, j int) bool {
		return img.StreamSegs[i].Stream < img.StreamSegs[j].Stream
	})
	if db.vec != nil {
		img.Vec = db.vec.ivf.Snapshot()
	}
	return img
}

// restore installs a decoded image into a freshly opened database. Roots
// are re-homed across the configured shard count, which may differ from
// the saving process's — the snapshot is shard-layout independent.
func (db *VideoDB) restore(img dbImage) error {
	tree, err := index.NewShardedFromSnapshot(img.Index, db.cfg.Index)
	if err != nil {
		return err
	}
	db.tree = tree
	db.segments = img.Segments
	for _, sc := range img.StreamSegs {
		db.streamSegs[sc.Stream] = sc.Count
	}
	db.ogCount = img.OGCount
	db.strgBytes = img.STRGBytes
	db.rawBytes = img.RawBytes
	if len(img.OGs) != len(img.Records) {
		return &CorruptError{Offset: snapshotHeaderSize,
			Reason: fmt.Sprintf("payload holds %d OGs but %d records", len(img.OGs), len(img.Records))}
	}
	db.ogs = img.OGs
	db.records = img.Records
	db.blocks = ogBlocks(db.ogs)
	if db.traj != nil {
		for i, og := range db.ogs {
			db.traj.insert(i, og)
		}
	}
	if db.vec != nil {
		if img.Vec != nil {
			ivf, err := embed.FromSnapshot(img.Vec)
			if err != nil {
				return &CorruptError{Offset: snapshotHeaderSize,
					Reason: fmt.Sprintf("vector index: %v", err)}
			}
			if ivf.Len() != len(db.ogs) {
				return &CorruptError{Offset: snapshotHeaderSize,
					Reason: fmt.Sprintf("vector index holds %d vectors for %d OGs", ivf.Len(), len(db.ogs))}
			}
			db.vec.ivf = ivf
			// The rerank caches are derived state, never persisted.
			cas := db.tree.Cascade()
			for _, blk := range db.blocks {
				seq := blk.Sequence()
				db.vec.seqs = append(db.vec.seqs, seq)
				db.vec.sums = append(db.vec.sums, cas.Summarize(seq))
			}
			db.vec.rebuildMirror()
		} else {
			// Pre-v3 file (or one saved with the tier off): rebuild from
			// the OG stream. Deterministic embedding + one-shot training
			// make this bit-identical to an incrementally maintained tier.
			for i, blk := range db.blocks {
				db.vec.insert(i, blk, db.tree.Cascade())
			}
		}
	}
	return nil
}

// Save writes the database to w in the versioned, checksummed snapshot
// container. The configuration is not persisted — metrics are functions —
// so Load must be given the same Config the database was built with.
func (db *VideoDB) Save(w io.Writer) error {
	return writeSnapshot(w, db.image())
}

// writeSnapshot encodes one image into the container format.
func writeSnapshot(w io.Writer, img dbImage) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&img); err != nil {
		return fmt.Errorf("core: encoding database: %w", err)
	}
	var header [snapshotHeaderSize]byte
	copy(header[:], snapshotMagic[:])
	binary.LittleEndian.PutUint32(header[8:], snapshotVersion)
	var trailer [snapshotTrailerSize]byte
	binary.LittleEndian.PutUint64(trailer[:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(trailer[8:], crc32.Checksum(payload.Bytes(), snapshotCRC))
	for _, chunk := range [][]byte{header[:], payload.Bytes(), trailer[:]} {
		if _, err := w.Write(chunk); err != nil {
			return fmt.Errorf("core: writing database: %w", err)
		}
	}
	return nil
}

// readSnapshot validates the container and decodes the image.
func readSnapshot(r io.Reader) (dbImage, error) {
	var img dbImage
	data, err := io.ReadAll(r)
	if err != nil {
		return img, fmt.Errorf("core: reading database: %w", err)
	}
	if len(data) == 0 {
		return img, &CorruptError{Offset: 0, Reason: "empty file"}
	}
	if len(data) < snapshotHeaderSize+snapshotTrailerSize {
		return img, &CorruptError{Offset: int64(len(data)), Reason: "truncated: shorter than container framing"}
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return img, &CorruptError{Offset: 0, Reason: "bad magic (not a strgindex snapshot)"}
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v < snapshotMinVersion || v > snapshotVersion {
		return img, &CorruptError{Offset: 8, Reason: fmt.Sprintf("unsupported snapshot version %d", v)}
	}
	payload := data[snapshotHeaderSize : len(data)-snapshotTrailerSize]
	trailer := data[len(data)-snapshotTrailerSize:]
	if got := binary.LittleEndian.Uint64(trailer); got != uint64(len(payload)) {
		return img, &CorruptError{Offset: int64(len(data) - snapshotTrailerSize),
			Reason: fmt.Sprintf("truncated: trailer claims %d payload bytes, file holds %d", got, len(payload))}
	}
	if got, want := crc32.Checksum(payload, snapshotCRC), binary.LittleEndian.Uint32(trailer[8:]); got != want {
		snapshotChecksumFailures.Inc()
		return img, &CorruptError{Offset: snapshotHeaderSize, Reason: "checksum mismatch"}
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
		return img, &CorruptError{Offset: snapshotHeaderSize, Reason: fmt.Sprintf("decoding payload: %v", err)}
	}
	return img, nil
}

// Load reads a database previously written by Save, under cfg (which must
// match the saving configuration — leaf keys are verified against the
// configured metric). Damaged input — truncated, bit-flipped, empty, or
// not a snapshot at all — is reported as a *CorruptError matching
// ErrCorrupt, never silently loaded.
func Load(r io.Reader, cfg Config) (*VideoDB, error) {
	img, err := readSnapshot(r)
	if err != nil {
		return nil, err
	}
	db := Open(cfg)
	if err := db.restore(img); err != nil {
		return nil, err
	}
	return db, nil
}

// SaveFile durably writes the database to path: the container goes to
// path+".tmp", is fsynced, atomically renamed into place, and the
// directory is fsynced — a crash at any point leaves either the old file
// or the new one, never a torn mix.
func (db *VideoDB) SaveFile(fsys faultfs.FS, path string) error {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	return faultfs.WriteAtomic(fsys, path, db.Save)
}

// LoadFile reads a database from path (see Load).
func LoadFile(fsys faultfs.FS, path string, cfg Config) (*VideoDB, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, cfg)
}
