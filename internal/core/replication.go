package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"strgindex/internal/faultfs"
	"strgindex/internal/wal"
)

// This file is the core side of WAL-streaming replication (the wire
// protocol and connection loop live in internal/replica):
//
//   - the primary exposes its WAL as an offset-addressed record stream
//     (WALFrames), a bootstrap snapshot stamped with the resume position
//     (ReplicationSnapshot), a retention floor so rotation never deletes
//     frames an attached replica has not acked (SetWALRetainFloor), and
//     a deterministic state digest for anti-entropy (ReplicationDigest);
//   - a replica (OpenReplica) applies fetched records through
//     ApplyReplicated, which write-ahead logs each one locally with its
//     primary position before mutating state, so the existing recovery
//     path restores both the data AND the exact resume point after a
//     crash — no gaps, no duplicates.

// ErrReplica is returned by the ingest surface of a database opened with
// OpenReplica: replicas are read-only, mutations arrive only from the
// primary's WAL stream.
var ErrReplica = errors.New("core: read-only replica")

// ErrNotDurable is returned by replication surfaces on a database without
// a durability directory — there is no WAL to stream.
var ErrNotDurable = errors.New("core: replication requires a durable database")

// ErrWALGone reports that a requested WAL position is no longer served by
// the primary (rotated away before the reader registered, ahead of the
// committed end, or from a previous incarnation). The reader must
// re-bootstrap from a fresh snapshot.
var ErrWALGone = errors.New("core: wal position no longer available")

// WALPos addresses a byte position in a durable database's write-ahead
// log chain: the sequence number of a log file and a byte offset within
// it (record boundaries only — wal.HeaderSize or an offset after a
// record's frame).
type WALPos = wal.Pos

// WALFrame is one record read from the primary's WAL: the payload plus
// the position immediately after its frame — the point a replica resumes
// from once the record is applied.
type WALFrame struct {
	Payload []byte
	Next    WALPos
}

// Durable reports whether the database persists through a WAL (and can
// therefore act as a replication primary or replica).
func (s *SharedDB) Durable() bool { return s.dur != nil }

// WALPos returns the committed end of the write-ahead log chain.
func (s *SharedDB) WALPos() (WALPos, error) {
	if s.dur == nil {
		return WALPos{}, ErrNotDurable
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dur.chain.End(), nil
}

// SetWALRetainFloor sets the lowest WAL sequence log rotation must
// preserve (the minimum acked position across registered replicas).
// math.MaxUint64 restores the default: delete everything a snapshot
// covers.
func (s *SharedDB) SetWALRetainFloor(seq uint64) error {
	if s.dur == nil {
		return ErrNotDurable
	}
	s.dur.retain.Store(seq)
	return nil
}

// WALFrames reads committed WAL records starting at from, stopping after
// roughly maxBytes of payload (at least one record is returned when any
// is available). It returns the frames with their per-record resume
// positions, the position to fetch from next, and the committed end of
// the chain at read time (next == end means the reader is caught up).
//
// Only the position capture takes the database lock: sealed logs are
// immutable and the live log is read up to its committed size, which
// appends only grow and rollbacks never shrink below. A position the
// primary no longer serves (rotated away, ahead of the end, or below a
// record boundary) fails with ErrWALGone — the reader re-bootstraps.
func (s *SharedDB) WALFrames(from WALPos, maxBytes int64) (frames []WALFrame, next, end WALPos, err error) {
	if s.dur == nil {
		return nil, from, end, ErrNotDurable
	}
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	s.mu.RLock()
	end = s.dur.chain.End()
	s.mu.RUnlock()
	if from.Seq == 0 || from.Off < wal.HeaderSize {
		return nil, from, end, fmt.Errorf("core: position %v predates the log chain: %w", from, ErrWALGone)
	}
	if end.Before(from) {
		return nil, from, end, fmt.Errorf("core: position %v is ahead of the committed end %v: %w", from, end, ErrWALGone)
	}
	next, err = s.dur.chain.Read(from, end, maxBytes, func(payload []byte, after WALPos) {
		frames = append(frames, WALFrame{Payload: bytes.Clone(payload), Next: after})
	})
	if errors.Is(err, os.ErrNotExist) || errors.Is(err, wal.ErrCorrupt) {
		// Rotated away, damaged, or a reader offset that lands mid-record
		// (a restarted primary wrote different bytes past it): the reader
		// cannot resume here, so it re-bootstraps instead of retrying a
		// permanent failure forever.
		return nil, from, end, fmt.Errorf("core: %v: %w", err, ErrWALGone)
	}
	if err != nil {
		return nil, from, end, err
	}
	return frames, next, end, nil
}

// WALBytesBetween estimates the committed bytes between from and the
// chain end (framing included) — the lag a reader at from is behind by.
// Positions outside the chain clamp to zero.
func (s *SharedDB) WALBytesBetween(from, end WALPos) int64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.chain.Between(from, end)
}

// ReplicationSnapshot writes a bootstrap snapshot for a new replica: the
// current state image stamped with the WAL position it is current to
// (SrcSeq/SrcOff) and WALSeq 1, so the replica starts a fresh local log
// chain and resumes streaming exactly after the image. The position is
// captured under the write lock; the encode runs outside it, off a
// consistent image (the same discipline as background rotation).
func (s *SharedDB) ReplicationSnapshot(w io.Writer) (WALPos, error) {
	if s.dur == nil {
		return WALPos{}, ErrNotDurable
	}
	s.mu.Lock()
	if s.dur.closed {
		s.mu.Unlock()
		return WALPos{}, fmt.Errorf("core: database closed")
	}
	img := s.db.image()
	pos := s.dur.chain.End()
	s.mu.Unlock()
	img.WALSeq = 1
	img.SrcSeq, img.SrcOff = pos.Seq, pos.Off
	if err := writeSnapshot(w, img); err != nil {
		return WALPos{}, err
	}
	return pos, nil
}

// InspectSnapshotFile validates a snapshot container on disk (a replica
// verifies a downloaded bootstrap before installing it) and returns the
// source position it is current to plus the segment count it covers.
func InspectSnapshotFile(fsys faultfs.FS, path string) (WALPos, int, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	img, err := snapshotImage(fsys, path)
	if err != nil {
		return WALPos{}, 0, err
	}
	return WALPos{Seq: img.SrcSeq, Off: img.SrcOff}, img.Segments, nil
}

// ReplicaPos returns, on a replica, the primary WAL position after the
// last applied operation — the crash-safe replication resume point.
func (s *SharedDB) ReplicaPos() WALPos {
	if s.dur == nil {
		return WALPos{}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dur.srcPos
}

// AppliedSegments returns the number of committed segment operations —
// the version token replicas and tests compare answers at.
func (s *SharedDB) AppliedSegments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.segments
}

// ApplyReplicated applies one fetched WAL record on a replica: the
// payload is decoded into the commit record the primary built (its OGs
// and background graph — the replica never runs the video pipeline),
// write-ahead logged locally with its source position src (the primary
// position after the record's frame), and committed — the exact commit
// discipline of a primary ingest, so a crash at any byte recovers
// byte-identical with the matching resume point. A payload in a format
// this binary does not read fails with ErrWALFormat and commits nothing.
// Records must arrive in stream order: src must advance.
func (s *SharedDB) ApplyReplicated(payload []byte, src WALPos) error {
	if !s.replica {
		return fmt.Errorf("core: ApplyReplicated on a non-replica database")
	}
	if s.dur == nil {
		return ErrNotDurable
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	if src.IsZero() {
		return fmt.Errorf("core: replicated record carries no source position")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur.closed {
		return fmt.Errorf("core: database closed")
	}
	if !s.dur.srcPos.IsZero() && !s.dur.srcPos.Before(src) {
		return fmt.Errorf("core: replicated record at %v does not advance the applied position %v",
			src, s.dur.srcPos)
	}
	s.dur.applySrc = src
	err = s.db.commitSegment(rec)
	s.dur.applySrc = WALPos{}
	if err == nil {
		// Advance the resume point BEFORE settling the WAL: settling can
		// trigger a rotation whose snapshot already contains this record,
		// so it must be stamped with this record's position — stamping the
		// previous one would make a post-crash recovery re-fetch and
		// re-apply the record, silently diverging from the primary.
		s.dur.srcPos = src
	}
	s.afterIngestLocked(err)
	return err
}

// StateDigest is the anti-entropy fingerprint of a database: one hash of
// the canonically renumbered index snapshot plus a corpus hash over the
// retained records and OG sequences, all at a specific position.
// Two databases whose positions match must produce identical digests;
// a mismatch means silent divergence and the replica must re-bootstrap.
// Hashes are canonical across build paths (incremental vs. restored) but
// assume both sides run the same binary (gob encodings are compared).
type StateDigest struct {
	// Pos is the position the digest was taken at: the committed WAL end
	// on a primary, the applied source position on a replica. Digests are
	// only comparable at equal positions.
	Pos WALPos `json:"pos"`
	// Segments is the applied-operation count at Pos.
	Segments int `json:"segments"`
	// Index is the hex SHA-256 of the canonical index snapshot. An older
	// binary's digest carries per-shard hashes instead and leaves it empty.
	Index string `json:"index"`
	// Corpus fingerprints the retained clip records and OG trajectories.
	Corpus string `json:"corpus"`
}

// ReplicationDigest computes the anti-entropy digest. The index's shape
// is a function of the commit sequence, so two copies at the same
// position digest alike.
func (s *SharedDB) ReplicationDigest() (StateDigest, error) {
	if s.dur == nil {
		return StateDigest{}, ErrNotDurable
	}
	s.mu.RLock()
	defer s.mu.RUnlock()

	var dig StateDigest
	if s.replica {
		dig.Pos = s.dur.srcPos
	} else {
		dig.Pos = s.dur.chain.End()
	}
	dig.Segments = s.db.segments

	// Snapshot() renumbers roots by position and clusters sequentially, so
	// two trees holding the same logical state hash identically regardless
	// of how they were built.
	h := sha256.New()
	if err := gob.NewEncoder(h).Encode(s.db.tree.Snapshot().Roots); err != nil {
		return StateDigest{}, fmt.Errorf("core: hashing index: %w", err)
	}
	dig.Index = hex.EncodeToString(h.Sum(nil))

	ch := sha256.New()
	if err := gob.NewEncoder(ch).Encode(s.db.records); err != nil {
		return StateDigest{}, fmt.Errorf("core: hashing records: %w", err)
	}
	var buf [8]byte
	for _, og := range s.db.ogs {
		for _, v := range og.Sequence() {
			for _, x := range v {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				ch.Write(buf[:])
			}
		}
	}
	dig.Corpus = hex.EncodeToString(ch.Sum(nil))
	return dig, nil
}
