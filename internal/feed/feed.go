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

// Feed is one live camera stream: a journal chain for durability, a
// preview OnlineBuilder whose quiescence signal picks epoch boundaries,
// and a buffer of frames pending commit. Commits go through the owning
// database's ordinary IngestSegment path, one segment per epoch, so the
// WAL, replication and snapshot layers see a live feed as a sequence of
// plain ingests — byte-identical to replaying the same epoch slices
// offline.
type Feed struct {
	mu   sync.Mutex
	svc  *Service
	id   string
	meta Meta

	b       *strg.OnlineBuilder
	journal *wal.Chain
	// epoch counts committed segments; next is the next expected
	// feed-global frame index.
	epoch int
	next  int
	// pending holds accepted frames not yet committed (the open epoch).
	pending []video.Frame
	closed  bool
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
	// OpenMoving is the preview builder's quiescence signal: open object
	// chains still in motion. Zero means an epoch boundary is imminent.
	OpenMoving int `json:"open_moving"`
}

// State returns the feed's current progress snapshot.
func (f *Feed) State() State {
	f.mu.Lock()
	defer f.mu.Unlock()
	return State{
		ID: f.id, Meta: f.meta, Epoch: f.epoch, NextFrame: f.next,
		Pending: len(f.pending), OpenMoving: f.b.OpenMoving(),
	}
}

// Append validates and journals a batch of frames. Frames whose index
// precedes the feed's cursor are duplicates (a client retrying after a
// lost ack) and are skipped; a frame beyond the cursor is a gap and
// rejects the whole batch with a *video.FrameOrderError before anything
// is journaled — a batch is all-or-nothing. Accepted frames are durable
// (one fsync) when Append returns. Crossing the epoch-size threshold
// while the preview builder is quiescent — or hitting the hard cap —
// commits the epoch inline.
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
		f.b.AddFrame(accepted[i]) // preview emissions are discarded
	}
	f.pending = append(f.pending, accepted...)
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
// soft threshold once the preview builder reports every tracked object
// quiescent (a natural cut — no chain is split mid-motion), and
// unconditionally at the hard cap.
func (f *Feed) shouldFlushLocked() bool {
	if len(f.pending) >= f.svc.opts.MaxEpochFrames {
		return true
	}
	return len(f.pending) >= f.svc.opts.MinEpochFrames && f.b.OpenMoving() == 0
}

// Flush commits the open epoch regardless of thresholds. A feed with no
// pending frames flushes to nothing, successfully.
func (f *Feed) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("feed: %s is closed", f.id)
	}
	if len(f.pending) == 0 {
		return nil
	}
	return f.flushLocked()
}

// flushLocked commits the open epoch through the database write path and
// rotates the journal. A crash after the intent and before the next
// checkpoint leaves the intent as the tail of the chain; recovery asks the
// database (SegmentsIn) whether the commit landed and redoes it only if
// not. Every redo ingests the identical segment (same frames, same name),
// so the database sees exactly one commit per epoch.
func (f *Feed) flushLocked() error {
	intent, err := encodeRec(journalRec{Kind: recIntent, Epoch: f.epoch})
	if err != nil {
		return err
	}
	preIntent := f.journal.Log().Size()
	if err := f.journal.Log().Append(intent); err != nil {
		return err
	}

	seg := f.epochSegmentLocked()
	if _, err := f.svc.opts.DB.IngestSegment(f.id, seg); err != nil {
		// The epoch is intact in memory and in the journal; withdraw the
		// intent so recovery does not redo a commit that never happened
		// with frames that may grow before the retry.
		if terr := f.journal.Log().TruncateTo(preIntent); terr != nil {
			return fmt.Errorf("feed: %s epoch %d commit failed (%v) and intent rollback failed: %w", f.id, f.epoch, err, terr)
		}
		return fmt.Errorf("feed: %s committing epoch %d: %w", f.id, f.epoch, err)
	}

	f.epoch++
	f.pending = f.pending[:0]
	flushesTotal.Inc()
	return f.rotateLocked()
}

// epochSegmentLocked builds the segment the open epoch commits as: the
// pending frames renumbered from zero under the epoch's name. Renumbering
// makes each epoch a self-contained segment — Validate-clean and
// byte-identical to an offline ingest of the same slice.
func (f *Feed) epochSegmentLocked() *video.Segment {
	frames := make([]video.Frame, len(f.pending))
	copy(frames, f.pending)
	for i := range frames {
		frames[i].Index = i
	}
	return &video.Segment{
		Name:   fmt.Sprintf("%s/%06d", f.id, f.epoch),
		Width:  f.meta.Width,
		Height: f.meta.Height,
		FPS:    f.meta.FPS,
		Frames: frames,
	}
}

// checkpointLocked encodes the meta record heading a journal: the feed's
// identity and its state at the current epoch boundary.
func (f *Feed) checkpointLocked() ([]byte, error) {
	return encodeRec(journalRec{Kind: recMeta, Meta: &metaRec{
		ID: f.id, Meta: f.meta, Epoch: f.epoch, NextFrame: f.next,
		Builder: f.b.Checkpoint(),
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
