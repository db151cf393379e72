package feed

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"strgindex/internal/strg"
	"strgindex/internal/video"
	"strgindex/internal/wal"
)

// Feed is one live camera stream: a journal chain for durability and the
// open epoch's STRG, which tracks each accepted frame once, as it arrives.
// Its quiescence signal picks epoch boundaries, and a flush commits it as
// built (SharedDB.IngestBuilt), one segment per epoch — the commit a
// one-shot IngestSegment of the epoch's frames makes, so the WAL,
// replication and snapshot layers see a live feed as a sequence of plain
// ingests, byte-identical to replaying the same epoch slices offline.
type Feed struct {
	mu   sync.Mutex
	svc  *Service
	id   string
	meta Meta

	journal *wal.Chain
	// epoch counts committed segments; next is the next expected
	// feed-global frame index.
	epoch int
	next  int
	// open is the open epoch's STRG under the database's configuration:
	// node IDs and frame positions start at zero with the epoch, exactly
	// as Build of the epoch's frames numbers them. nil until the epoch's
	// first frame.
	open   *strg.STRG
	closed bool
}

// AppendResult reports one batch append.
type AppendResult struct {
	// Accepted counts frames journaled by this call; Duplicates counts
	// frames skipped because their index precedes NextFrame (idempotent
	// client retries).
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	// NextFrame is the next frame index the feed expects — the client's
	// resume cursor after a reconnect.
	NextFrame int `json:"next_frame"`
	// Epoch is the current (uncommitted) epoch; Flushed reports whether
	// this append triggered an epoch commit.
	Epoch   int  `json:"epoch"`
	Flushed bool `json:"flushed"`
}

// State is a point-in-time snapshot of a feed's progress.
type State struct {
	ID        string `json:"id"`
	Meta      Meta   `json:"meta"`
	Epoch     int    `json:"epoch"`
	NextFrame int    `json:"next_frame"`
	Pending   int    `json:"pending_frames"`
	// OpenMoving is the open epoch's quiescence signal: object chains
	// still in motion. Zero means an epoch boundary is imminent.
	OpenMoving int `json:"open_moving"`
}

// State returns the feed's current progress snapshot.
func (f *Feed) State() State {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := State{ID: f.id, Meta: f.meta, Epoch: f.epoch, NextFrame: f.next}
	if f.open != nil {
		st.Pending, st.OpenMoving = len(f.open.Frames), f.open.OpenMoving()
	}
	return st
}

// trackLocked adds one accepted frame to the open epoch's STRG. The
// epoch's first frame starts it as segment <feed>/<epoch>.
func (f *Feed) trackLocked(fr video.Frame) {
	if f.open != nil {
		f.open.Add(fr)
		return
	}
	seg := &video.Segment{
		Name:   fmt.Sprintf("%s/%06d", f.id, f.epoch),
		Width:  f.meta.Width,
		Height: f.meta.Height,
		FPS:    f.meta.FPS,
		Frames: []video.Frame{fr},
	}
	s, err := strg.Build(seg, f.svc.opts.DB.STRGConfig())
	if err != nil {
		panic(err) // unreachable: Build refuses only an empty segment
	}
	f.open = s
}

// Append validates and journals a batch of frames. Frames whose index
// precedes the feed's cursor are duplicates (a client retrying after a
// lost ack) and are skipped; a frame beyond the cursor is a gap and
// rejects the whole batch with a *video.FrameOrderError before anything
// is journaled — a batch is all-or-nothing. Accepted frames are durable
// (one fsync) when Append returns. Crossing the epoch-size threshold
// while the open epoch is quiescent — or hitting the hard cap — commits
// the epoch inline.
func (f *Feed) Append(frames []video.Frame) (AppendResult, error) {
	start := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return AppendResult{}, fmt.Errorf("feed: %s is closed", f.id)
	}

	// Pass 1: validate the whole batch against the cursor and geometry.
	// Nothing is journaled until every frame checks out.
	res := AppendResult{NextFrame: f.next, Epoch: f.epoch}
	expect := f.next
	var accepted []video.Frame
	for i := range frames {
		fr := frames[i]
		switch {
		case fr.Index < expect:
			res.Duplicates++
		case fr.Index > expect:
			return AppendResult{}, &video.FrameOrderError{Segment: f.id, Index: fr.Index, Want: expect}
		default:
			if err := fr.Validate(f.meta.Width, f.meta.Height); err != nil {
				return AppendResult{}, fmt.Errorf("feed: %s frame %d: %w", f.id, fr.Index, err)
			}
			accepted = append(accepted, fr)
			expect++
		}
	}
	if len(accepted) == 0 {
		framesDuplicate.Add(int64(res.Duplicates))
		return res, nil
	}

	payload, err := encodeRec(journalRec{Kind: recFrames, Frames: accepted})
	if err != nil {
		return AppendResult{}, err
	}
	if err := f.journal.Log().Append(payload); err != nil {
		return AppendResult{}, err
	}
	for i := range accepted {
		f.trackLocked(accepted[i])
	}
	f.next = expect
	res.Accepted = len(accepted)
	res.NextFrame = f.next
	framesTotal.Add(int64(res.Accepted))
	framesDuplicate.Add(int64(res.Duplicates))

	if f.shouldFlushLocked() {
		if err := f.flushLocked(); err != nil {
			// The frames are durable; only the epoch commit failed. The
			// client's cursor still advances — a later append or explicit
			// flush retries the commit.
			return res, err
		}
		res.Flushed = true
		res.Epoch = f.epoch
	}
	appendSeconds.Observe(time.Since(start).Seconds())
	return res, nil
}

// shouldFlushLocked decides whether the open epoch commits now: at the
// soft threshold once the open epoch's STRG reports every tracked object
// quiescent (a natural cut — no chain is split mid-motion), and
// unconditionally at the hard cap. Append calls it after tracking at
// least one frame, so the epoch's STRG exists.
func (f *Feed) shouldFlushLocked() bool {
	n := len(f.open.Frames)
	if n >= f.svc.opts.MaxEpochFrames {
		return true
	}
	return n >= f.svc.opts.MinEpochFrames && f.open.OpenMoving() == 0
}

// Flush commits the open epoch regardless of thresholds. A feed with no
// pending frames flushes to nothing, successfully.
func (f *Feed) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("feed: %s is closed", f.id)
	}
	if f.open == nil {
		return nil
	}
	return f.flushLocked()
}

// flushLocked commits the open epoch's STRG through the database write
// path and rotates the journal. A crash after the intent and before the
// next checkpoint leaves the intent as the tail of the chain; recovery
// asks the database (SegmentsIn) whether the commit landed and redoes it
// only if not. A redo commits the STRG journal replay rebuilt from the
// same frames under the same name, so the database sees exactly one
// commit per epoch.
func (f *Feed) flushLocked() error {
	intent, err := encodeRec(journalRec{Kind: recIntent, Epoch: f.epoch})
	if err != nil {
		return err
	}
	preIntent := f.journal.Log().Size()
	if err := f.journal.Log().Append(intent); err != nil {
		return err
	}

	if err := f.svc.opts.DB.IngestBuilt(f.id, f.open); err != nil {
		// The epoch is intact in memory and in the journal; withdraw the
		// intent so recovery does not redo a commit that never happened
		// with frames that may grow before the retry.
		if terr := f.journal.Log().TruncateTo(preIntent); terr != nil {
			return fmt.Errorf("feed: %s epoch %d commit failed (%v) and intent rollback failed: %w", f.id, f.epoch, err, terr)
		}
		return fmt.Errorf("feed: %s committing epoch %d: %w", f.id, f.epoch, err)
	}

	f.epoch++
	f.open = nil
	flushesTotal.Inc()
	return f.rotateLocked()
}

// checkpointLocked encodes the meta record heading a journal: the feed's
// identity, epoch and cursor at the current epoch boundary — all of its
// state there, since each epoch's STRG starts empty.
func (f *Feed) checkpointLocked() ([]byte, error) {
	return encodeRec(journalRec{Kind: recMeta, Meta: &metaRec{
		ID: f.id, Meta: f.meta, Epoch: f.epoch, NextFrame: f.next,
	}})
}

// rotateLocked seals the journal chain after a commit: the next journal,
// headed by a fresh checkpoint, takes the appends, and the journals that
// checkpoint covers are removed.
func (f *Feed) rotateLocked() error {
	head, err := f.checkpointLocked()
	if err != nil {
		return err
	}
	sealed, err := f.journal.Rotate(head)
	if err != nil {
		return fmt.Errorf("feed: %s rotating journal: %w", f.id, err)
	}
	sealed.Close()
	if err := f.journal.Prune(f.journal.Seq()); err != nil {
		return fmt.Errorf("feed: %s removing sealed journal: %w", f.id, err)
	}
	return f.svc.opts.FS.SyncDir(filepath.Join(f.svc.opts.Dir, f.id))
}

// close releases the journal handle. Pending frames stay journaled and
// recover on the next open.
func (f *Feed) close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	return f.journal.Log().Close()
}
