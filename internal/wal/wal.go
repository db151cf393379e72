// Package wal implements the write-ahead log of the durability layer: an
// append-only file of length-prefixed, CRC32C-checksummed records, fsynced
// on every append, with a replay scanner that distinguishes a torn tail
// (the normal residue of a crash mid-append, repaired by truncation) from
// checksum corruption (bad media, refused).
//
// # File format
//
// A log starts with the 8-byte magic "STRGWAL\x01" (the final byte is the
// format version). Each record is then
//
//	uint32 LE payload length | uint32 LE CRC32C(payload) | payload
//
// with CRC32C the Castagnoli polynomial. Records are written with one
// Write call followed by one fsync, so a crash persists a prefix of the
// frame: replay sees a record whose bytes run past the end of the file
// and truncates it. A record whose bytes are all present but whose CRC
// does not match cannot be a tear under prefix-persistence — it is
// corruption, and Scan refuses the log rather than silently loading or
// skipping it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"strgindex/internal/faultfs"
	"strgindex/internal/obs"
)

// Magic identifies a WAL file; the last byte is the format version.
var Magic = [8]byte{'S', 'T', 'R', 'G', 'W', 'A', 'L', 1}

// HeaderSize is the byte length of the file header.
const HeaderSize = 8

// FrameOverhead is the per-record framing: length + CRC. Exported so the
// replication layer can compute resume offsets from record payloads.
const FrameOverhead = 8

// MaxRecordBytes bounds a single record payload. A length prefix above it
// can only come from corruption (ingest bodies are far smaller), so the
// scanner reports it instead of attempting a multi-gigabyte read.
const MaxRecordBytes = 256 << 20

// ErrCorrupt is the sentinel matched (via errors.Is) by every corruption
// error the scanner reports.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrStopScan, returned by a scan callback, ends the scan cleanly: the
// Result covers the records applied so far (Stopped is set) and Scan
// returns a nil error. Used by readers that page through a log in
// bounded batches.
var ErrStopScan = errors.New("wal: stop scan")

// CorruptError reports where and why a log was rejected.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Is matches ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Observability: the durability layer's health is judged from these.
var (
	walAppends = obs.Default.Counter("strg_wal_appends_total",
		"records appended to the write-ahead log", nil)
	walAppendBytes = obs.Default.Counter("strg_wal_append_bytes_total",
		"bytes appended to the write-ahead log (framing included)", nil)
	walFsyncs = obs.Default.Counter("strg_wal_fsyncs_total",
		"fsync calls issued by the write-ahead log", nil)
	walTornTails = obs.Default.Counter("strg_wal_torn_tails_total",
		"torn trailing records discarded during replay", nil)
	walChecksumFailures = obs.Default.Counter("strg_wal_checksum_failures_total",
		"checksummed records rejected during replay (corruption, not tears)", nil)
)

// Result summarizes one Scan.
type Result struct {
	// Records is the number of intact records.
	Records int
	// CommittedSize is the byte offset of the end of the last intact
	// record — the size the file should be truncated to before appending.
	CommittedSize int64
	// Torn reports whether a trailing partial record (or partial header)
	// was found and measured off; the torn bytes start at CommittedSize.
	Torn bool
	// Stopped reports that the scan ended early because apply returned
	// ErrStopScan; records may remain after CommittedSize.
	Stopped bool
}

// Scan reads the log at path, calling apply for each intact record in
// order; off is the byte offset the record's frame starts at. A torn tail
// (file ends inside a record frame, or inside the file header) is
// reported in the Result, not as an error; corruption (bad magic,
// oversized length, CRC mismatch on a fully present record) aborts with a
// *CorruptError. An apply error aborts the scan and is returned wrapped,
// except ErrStopScan which ends it cleanly.
//
// The payload slice passed to apply aliases the scan buffer and is only
// valid for the duration of the call.
func Scan(fsys faultfs.FS, path string, apply func(off int64, payload []byte) error) (Result, error) {
	return ScanRange(fsys, path, HeaderSize, -1, apply)
}

// ScanRange is Scan restricted to a byte window: records are read
// starting at offset from (which must be a record boundary — HeaderSize
// or an offset previously reported by Scan), and bytes at or beyond
// limit are treated as absent (limit < 0 means the whole file). The
// replication reader uses the limit to page a live log up to its
// committed size without seeing an append in flight.
func ScanRange(fsys faultfs.FS, path string, from, limit int64, apply func(off int64, payload []byte) error) (Result, error) {
	data, err := faultfs.ReadFile(fsys, path)
	if err != nil {
		return Result{}, err
	}
	if limit >= 0 && int64(len(data)) > limit {
		data = data[:limit]
	}
	var res Result
	if len(data) < HeaderSize {
		// A crash during log creation persisted a prefix of the header.
		res.Torn = len(data) > 0
		if res.Torn {
			walTornTails.Inc()
		}
		return res, nil
	}
	if [8]byte(data[:8]) != Magic {
		return res, &CorruptError{Path: path, Offset: 0, Reason: "bad magic"}
	}
	if from < HeaderSize {
		from = HeaderSize
	}
	if from > int64(len(data)) {
		return res, &CorruptError{Path: path, Offset: from,
			Reason: fmt.Sprintf("start offset beyond %d available bytes", len(data))}
	}
	off := from
	res.CommittedSize = off
	for {
		remaining := int64(len(data)) - off
		if remaining == 0 {
			return res, nil
		}
		if remaining < FrameOverhead {
			res.Torn = true
			walTornTails.Inc()
			return res, nil
		}
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length > MaxRecordBytes {
			walChecksumFailures.Inc()
			return res, &CorruptError{Path: path, Offset: off,
				Reason: fmt.Sprintf("record length %d exceeds limit", length)}
		}
		if remaining < FrameOverhead+length {
			res.Torn = true
			walTornTails.Inc()
			return res, nil
		}
		payload := data[off+FrameOverhead : off+FrameOverhead+length]
		if crc32.Checksum(payload, castagnoli) != sum {
			walChecksumFailures.Inc()
			return res, &CorruptError{Path: path, Offset: off, Reason: "checksum mismatch"}
		}
		if err := apply(off, payload); err != nil {
			if errors.Is(err, ErrStopScan) {
				res.Stopped = true
				return res, nil
			}
			return res, fmt.Errorf("wal: applying record %d of %s: %w", res.Records, path, err)
		}
		off += FrameOverhead + length
		res.Records++
		res.CommittedSize = off
	}
}

// Log is an open write-ahead log positioned for appending.
type Log struct {
	f    faultfs.File
	path string
	size int64
}

// Create creates (or truncates) a fresh log at path, writes the header
// and fsyncs both the file and its directory.
func Create(fsys faultfs.FS, path string) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, path: path}
	if _, err := f.Write(Magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: writing header of %s: %w", path, err)
	}
	if err := l.sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	l.size = HeaderSize
	return l, nil
}

// OpenAppend opens an existing log for appending, truncating it to
// committedSize first (discarding a torn tail measured by Scan). A
// committedSize of 0 — a log whose header itself was torn — rewrites the
// file from scratch.
func OpenAppend(fsys faultfs.FS, path string, committedSize int64) (*Log, error) {
	if committedSize < HeaderSize {
		return Create(fsys, path)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, path: path, size: committedSize}
	if err := l.truncate(committedSize); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(committedSize, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seeking %s: %w", path, err)
	}
	return l, nil
}

// Append frames, writes and fsyncs one record. When it returns nil the
// record is durable; on error the file may hold a torn frame, which the
// caller either truncates with TruncateTo or leaves for the next Scan to
// measure off.
func (l *Log) Append(payload []byte) error {
	frame := make([]byte, FrameOverhead+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[FrameOverhead:], payload)
	n, err := l.f.Write(frame)
	if err != nil {
		return fmt.Errorf("wal: appending to %s after %d/%d bytes: %w", l.path, n, len(frame), err)
	}
	if err := l.sync(); err != nil {
		return err
	}
	l.size += int64(len(frame))
	walAppends.Inc()
	walAppendBytes.Add(int64(len(frame)))
	return nil
}

// Size returns the committed size in bytes (header included).
func (l *Log) Size() int64 { return l.size }

// Path returns the file path of the log.
func (l *Log) Path() string { return l.path }

// TruncateTo rolls the log back to size (an offset previously returned by
// Size), discarding any bytes after it — the undo for an append whose
// apply step failed.
func (l *Log) TruncateTo(size int64) error {
	if err := l.truncate(size); err != nil {
		return err
	}
	if _, err := l.f.Seek(size, 0); err != nil {
		return fmt.Errorf("wal: seeking %s: %w", l.path, err)
	}
	if err := l.sync(); err != nil {
		return err
	}
	l.size = size
	return nil
}

func (l *Log) truncate(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncating %s to %d: %w", l.path, size, err)
	}
	return nil
}

func (l *Log) sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", l.path, err)
	}
	walFsyncs.Inc()
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	if err := l.sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
