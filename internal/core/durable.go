package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strgindex/internal/faultfs"
	"strgindex/internal/graph"
	"strgindex/internal/wal"
)

// Durability configures crash-safe persistence for a SharedDB: every
// ingest is appended to a write-ahead log (fsynced) before it mutates the
// in-memory database, and the log is periodically folded into a
// checksummed snapshot.
//
// The directory holds one current snapshot (SnapshotPath: versioned,
// checksummed, atomically renamed) plus a wal.Chain of sequence-numbered
// logs, wal-00000001.log onwards. The snapshot records the first log
// sequence it does NOT cover; recovery loads the snapshot and hands that
// sequence to the chain's one recovery rule (wal.Chain.Recover).
type Durability struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// FS is the filesystem to operate on. Nil means the real one; tests
	// inject faults here.
	FS faultfs.FS
	// SnapshotOps triggers a background snapshot + log rotation once this
	// many operations have accumulated in the log chain since the last
	// snapshot. 0 means the 256 default; negative disables the trigger.
	SnapshotOps int
	// SnapshotBytes triggers the same once the current log exceeds this
	// size. 0 means the 64 MiB default; negative disables the trigger.
	SnapshotBytes int64
}

// DefaultSnapshotOps and DefaultSnapshotBytes are the rotation thresholds
// selected by zero Durability fields.
const (
	DefaultSnapshotOps   = 256
	DefaultSnapshotBytes = 64 << 20
)

// walPrefix names the data directory's log chain (wal-%08d.log).
const walPrefix = "wal"

// SnapshotPath returns the path of the snapshot file in data directory
// dir — the file a replica installs its bootstrap image as.
func SnapshotPath(dir string) string { return filepath.Join(dir, "snapshot.strg") }

// RecoveryStats reports what OpenDurable did to reach a servable state.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot file was found and loaded.
	SnapshotLoaded bool
	// ReplayedLogs and ReplayedRecords count the WAL chain re-applied on
	// top of the snapshot.
	ReplayedLogs    int
	ReplayedRecords int
	// TornTail reports whether the final log ended in a partial record
	// (the residue of a crash mid-append) that was measured off and
	// truncated.
	TornTail bool
	// Duration is the wall time of recovery.
	Duration time.Duration
}

// recordKindCommit is the first byte of every WAL payload: the kind of the
// record that follows, here a gob-encoded commitRecord. The value is one
// no gob stream can start with (gob opens with a message length whose
// first byte is below 0x80 or at least 0xF8), so a payload written by a
// binary that logged the raw video segment as a bare gob stream fails the
// check instead of decoding — gob silently drops stream fields the
// receiver lacks, so without the tag such a payload would decode as a
// commit of zero OGs.
const recordKindCommit = 0x81

// ErrWALFormat is matched (via errors.Is) by the error recovery and replica
// apply report for a write-ahead log record this binary does not read: one
// left by a crashed older binary, which logged the raw video segment rather
// than the built graphs. The file is intact — the error does not match
// ErrCorrupt — and the cure is an upgrade step, not a restore: start the
// binary that wrote the log once on the directory and stop it cleanly (its
// final checkpoint folds the log into a snapshot). See the README's
// recovery runbook.
var ErrWALFormat = errors.New("core: write-ahead log record format not supported by this binary")

// encodeRecord serializes one commit record as a WAL payload.
func encodeRecord(rec commitRecord) ([]byte, error) {
	if rec.bg != nil {
		rec.HasBG, rec.BG = true, rec.bg.Snapshot()
	}
	var buf bytes.Buffer
	buf.WriteByte(recordKindCommit)
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		return nil, fmt.Errorf("core: encoding wal record: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeRecord parses a WAL payload back into a commit record ready for
// commitSegment, its background graph rebuilt from the logged snapshot.
func decodeRecord(payload []byte) (*commitRecord, error) {
	if len(payload) == 0 || payload[0] != recordKindCommit {
		return nil, fmt.Errorf("core: wal record lacks the kind byte %#x (left by a crashed older binary? "+
			"start that binary once on this directory and stop it cleanly): %w", recordKindCommit, ErrWALFormat)
	}
	rec := new(commitRecord)
	if err := gob.NewDecoder(bytes.NewReader(payload[1:])).Decode(rec); err != nil {
		return nil, fmt.Errorf("core: decoding wal record: %w", err)
	}
	if rec.HasBG {
		bg, err := graph.FromSnapshot(rec.BG)
		if err != nil {
			return nil, fmt.Errorf("core: decoding wal record: %w", err)
		}
		rec.bg = bg
	}
	return rec, nil
}

// durable is the persistence state hanging off a SharedDB. All fields
// except the background-goroutine coordination are guarded by the
// SharedDB write lock.
type durable struct {
	fsys faultfs.FS
	dir  string
	cfg  Durability

	chain *wal.Chain
	// ops counts records in the log chain since the last snapshot.
	ops int
	// pendingStart is the log offset before the in-flight append, or -1;
	// a failed commit rolls the log back to it.
	pendingStart int64

	// srcPos is, on a replica, the primary WAL position after the last
	// applied operation (the replication resume point); applySrc stages
	// the position of the operation currently being applied so append can
	// stamp it into the record. Both zero on a primary.
	srcPos   WALPos
	applySrc WALPos
	// retain is the lowest WAL sequence rotation must preserve for
	// replication readers (MaxUint64 = no floor). Stored atomically so
	// the primary-side replication service can move it without the
	// database lock.
	retain atomic.Uint64

	// snapshotting single-flights background snapshots; inflight tracks
	// the running one so Close and Checkpoint can wait without holding
	// the database lock.
	snapshotting atomic.Bool
	inflight     chan struct{}
	// errMu guards lastSnapErr, the most recent snapshot failure.
	errMu       sync.Mutex
	lastSnapErr error
	closed      bool
}

func (d *durable) setSnapErr(err error) {
	d.errMu.Lock()
	d.lastSnapErr = err
	d.errMu.Unlock()
}

func (d *durable) takeSnapErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	err := d.lastSnapErr
	d.lastSnapErr = nil
	return err
}

// OpenDurable opens (or creates) a crash-safe database in d.Dir:
// recovery loads the last good snapshot, replays the write-ahead log
// chain on top of it, truncates a torn final record, and leaves the log
// open for appending. A checksum failure in the snapshot or in a
// non-final log record aborts with an error matching ErrCorrupt — damaged
// state is never silently loaded — and a record left by an older binary
// with one matching ErrWALFormat. Replay commits each logged record as
// built; it does not re-run the ingest pipeline.
func OpenDurable(cfg Config, d Durability) (*SharedDB, RecoveryStats, error) {
	return openDurable(cfg, d, false)
}

// OpenReplica opens a crash-safe database in replica mode: the same
// recovery path as OpenDurable, but the external ingest surface is
// sealed (IngestSegment returns ErrReplica) and
// mutations arrive only through ApplyReplicated, which stamps each local
// WAL record with the primary position it came from. ReplicaPos reports
// the crash-safe resume point recovered from the snapshot and log chain.
func OpenReplica(cfg Config, d Durability) (*SharedDB, RecoveryStats, error) {
	return openDurable(cfg, d, true)
}

func openDurable(cfg Config, d Durability, replica bool) (*SharedDB, RecoveryStats, error) {
	start := time.Now()
	var stats RecoveryStats
	if d.Dir == "" {
		return nil, stats, fmt.Errorf("core: durability requires a data directory")
	}
	if d.FS == nil {
		d.FS = faultfs.OS{}
	}
	if d.SnapshotOps == 0 {
		d.SnapshotOps = DefaultSnapshotOps
	}
	if d.SnapshotBytes == 0 {
		d.SnapshotBytes = DefaultSnapshotBytes
	}
	fsys := d.FS
	if err := fsys.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("core: creating data directory: %w", err)
	}

	dur := &durable{fsys: fsys, dir: d.Dir, cfg: d, pendingStart: -1}
	dur.retain.Store(^uint64(0))

	// Sweep leftovers of an interrupted atomic write: a *.tmp never
	// renamed into place is dead weight.
	entries, err := fsys.ReadDir(d.Dir)
	if err != nil {
		return nil, stats, fmt.Errorf("core: reading data directory: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			_ = fsys.Remove(filepath.Join(d.Dir, e.Name()))
		}
	}

	// The last good snapshot, then the log chain from the first log it
	// does not cover.
	db := Open(cfg)
	startSeq := uint64(1)
	snap := SnapshotPath(d.Dir)
	if _, serr := fsys.Stat(snap); serr == nil {
		img, lerr := snapshotImage(fsys, snap)
		if lerr != nil {
			return nil, stats, fmt.Errorf("core: recovering %s: %w", snap, lerr)
		}
		if rerr := db.restore(img); rerr != nil {
			return nil, stats, rerr
		}
		if img.WALSeq > 0 {
			startSeq = img.WALSeq
		}
		dur.srcPos = WALPos{Seq: img.SrcSeq, Off: img.SrcOff}
		stats.SnapshotLoaded = true
	}
	dur.chain = wal.NewChain(fsys, d.Dir, walPrefix)
	rep, err := dur.chain.Recover(startSeq, func(_ uint64, _ int64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if err := db.commitSegment(rec); err != nil {
			return err
		}
		if rec.SrcSeq != 0 {
			// Replica record: its source position is the resume point once
			// this record is re-applied. A torn final record never reaches
			// here, so the recovered position is exactly the durable one.
			dur.srcPos = WALPos{Seq: rec.SrcSeq, Off: rec.SrcOff}
		}
		return nil
	})
	if errors.Is(err, wal.ErrCorrupt) {
		err = fmt.Errorf("%w (%w)", err, ErrCorrupt)
	}
	if err != nil {
		return nil, stats, fmt.Errorf("core: recovering the write-ahead log: %w", err)
	}
	stats.ReplayedLogs, stats.ReplayedRecords, stats.TornTail = rep.Logs, rep.Records, rep.Torn
	dur.ops = stats.ReplayedRecords

	s := &SharedDB{db: db, dur: dur, replica: replica}
	db.onCommit = dur.append
	stats.Duration = time.Since(start)
	recoverySeconds.Observe(stats.Duration.Seconds())
	recoveryReplayed.Add(int64(stats.ReplayedRecords))
	return s, stats, nil
}

// snapshotImage reads just the container image of a snapshot file.
func snapshotImage(fsys faultfs.FS, path string) (dbImage, error) {
	f, err := fsys.OpenFile(path, 0, 0)
	if err != nil {
		return dbImage{}, err
	}
	defer f.Close()
	return readSnapshot(f)
}

// append is the write-ahead hook: it durably logs the commit record before
// the commit mutates any state, stamped on a replica with the primary
// position it came from.
func (d *durable) append(rec *commitRecord) error {
	if d.closed {
		return fmt.Errorf("core: database closed")
	}
	rec.SrcSeq, rec.SrcOff = d.applySrc.Seq, d.applySrc.Off
	payload, err := encodeRecord(*rec)
	if err != nil {
		return err
	}
	d.pendingStart = d.chain.Log().Size()
	if err := d.chain.Log().Append(payload); err != nil {
		return err
	}
	d.ops++
	return nil
}

// rollbackPending undoes the in-flight append after a failed ingest,
// restoring WAL == memory. On a dead disk the truncate fails too; the
// next recovery measures the torn bytes off instead.
func (d *durable) rollbackPending() {
	if d.pendingStart < 0 {
		return
	}
	appended := d.chain.Log().Size() > d.pendingStart
	if err := d.chain.Log().TruncateTo(d.pendingStart); err == nil && appended {
		d.ops--
	}
	d.pendingStart = -1
}

// afterIngestLocked settles the WAL after an ingest call: rollback on
// failure, snapshot-threshold check on success. Called with the write
// lock held.
func (s *SharedDB) afterIngestLocked(err error) {
	d := s.dur
	if d == nil {
		return
	}
	if err != nil {
		d.rollbackPending()
		return
	}
	d.pendingStart = -1
	if (d.cfg.SnapshotOps > 0 && d.ops >= d.cfg.SnapshotOps) ||
		(d.cfg.SnapshotBytes > 0 && d.chain.Log().Size() >= d.cfg.SnapshotBytes) {
		s.rotateLocked(false)
	}
}

// rotateLocked starts a snapshot + log rotation: under the held write
// lock it captures the state image and switches appends to a fresh log;
// the expensive encode + fsync of the snapshot then runs in the
// background (or synchronously for Checkpoint). On snapshot failure the
// previous snapshot + full log chain stay authoritative — nothing is
// deleted until the new snapshot is durably in place.
func (s *SharedDB) rotateLocked(sync bool) {
	d := s.dur
	if !d.snapshotting.CompareAndSwap(false, true) {
		return
	}
	img := s.db.image()
	img.WALSeq = d.chain.Seq() + 1
	img.SrcSeq, img.SrcOff = d.srcPos.Seq, d.srcPos.Off
	oldLog, err := d.chain.Rotate(nil)
	if err != nil {
		d.setSnapErr(fmt.Errorf("core: rotating write-ahead log: %w", err))
		snapshotSaveFailures.Inc()
		d.snapshotting.Store(false)
		return
	}
	d.ops = 0
	d.pendingStart = -1
	walRotations.Inc()

	done := make(chan struct{})
	d.inflight = done
	write := func() {
		defer close(done)
		defer d.snapshotting.Store(false)
		_ = oldLog.Close()
		err := faultfs.WriteAtomic(d.fsys, SnapshotPath(d.dir), func(w io.Writer) error {
			return writeSnapshot(w, img)
		})
		if err != nil {
			d.setSnapErr(fmt.Errorf("core: writing snapshot: %w", err))
			snapshotSaveFailures.Inc()
			return
		}
		snapshotSaves.Inc()
		// The snapshot covers every log below img.WALSeq, but logs a
		// replication reader has not acked stay (the retention floor) until
		// a later rotation, with the floor advanced, removes them.
		_ = d.chain.Prune(min(img.WALSeq, d.retain.Load()))
	}
	if sync {
		write()
	} else {
		go write()
	}
}

// Checkpoint forces a synchronous snapshot + log rotation, waiting out
// any background snapshot first. A clean shutdown checkpoints so the next
// boot loads one file instead of replaying the log chain.
func (s *SharedDB) Checkpoint() error {
	if s.dur == nil {
		return fmt.Errorf("core: Checkpoint on a non-durable database")
	}
	for {
		s.waitSnapshot()
		s.mu.Lock()
		if s.dur.closed {
			s.mu.Unlock()
			return fmt.Errorf("core: database closed")
		}
		if s.dur.snapshotting.Load() {
			// A background rotation slipped in; wait it out and retry.
			s.mu.Unlock()
			continue
		}
		// Clear any stale failure so the error returned is this
		// checkpoint's own outcome.
		s.dur.takeSnapErr()
		s.rotateLocked(true)
		err := s.dur.takeSnapErr()
		s.mu.Unlock()
		return err
	}
}

// waitSnapshot blocks until no background snapshot is in flight.
func (s *SharedDB) waitSnapshot() {
	for {
		s.mu.RLock()
		ch := s.dur.inflight
		s.mu.RUnlock()
		if ch == nil {
			return
		}
		<-ch
		s.mu.RLock()
		same := s.dur.inflight == ch
		s.mu.RUnlock()
		if same {
			return
		}
	}
}

// WALSize returns the committed size of the current write-ahead log, or 0
// for a non-durable database.
func (s *SharedDB) WALSize() int64 {
	if s.dur == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dur.chain.Log().Size()
}

// Close flushes and closes the write-ahead log after waiting for any
// background snapshot. Further ingests fail; queries keep working off the
// in-memory state. A nil receiver or non-durable database is a no-op.
func (s *SharedDB) Close() error {
	if s == nil || s.dur == nil {
		return nil
	}
	s.waitSnapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur.closed {
		return nil
	}
	s.dur.closed = true
	return s.dur.chain.Log().Close()
}
