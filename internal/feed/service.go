package feed

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"

	"strgindex/internal/core"
	"strgindex/internal/faultfs"
	"strgindex/internal/strg"
	"strgindex/internal/wal"
)

// Options configures a feed service.
type Options struct {
	// Dir is the root under which each feed keeps its journal chain
	// (Dir/<feed-id>/journal-*.log).
	Dir string
	// FS is the filesystem the journals live on; nil means the real one.
	// Tests inject faults here.
	FS faultfs.FS
	// DB is the database feeds commit into and standing queries watch.
	DB *core.SharedDB
	// Deprecated: ignored. Each epoch is tracked under DB's own STRG
	// configuration (SharedDB.STRGConfig); kept only because the bench/
	// module assigns it.
	STRG *strg.Config
	// MinEpochFrames is the soft epoch size: once pending reaches it and
	// the open epoch is quiescent, the epoch commits. Default 16.
	MinEpochFrames int
	// MaxEpochFrames is the hard cap forcing a commit. Default 512.
	MaxEpochFrames int
	// RingSize bounds each subscription's undelivered-event buffer.
	// Default 256.
	RingSize int
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Dir == "" {
		return opts, errors.New("feed: Options.Dir is required")
	}
	if opts.DB == nil {
		return opts, errors.New("feed: Options.DB is required")
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS{}
	}
	if opts.MinEpochFrames <= 0 {
		opts.MinEpochFrames = 16
	}
	if opts.MaxEpochFrames <= 0 {
		opts.MaxEpochFrames = 512
	}
	if opts.MaxEpochFrames < opts.MinEpochFrames {
		opts.MaxEpochFrames = opts.MinEpochFrames
	}
	if opts.RingSize <= 0 {
		opts.RingSize = 256
	}
	return opts, nil
}

// Service owns every live feed and the standing-query engine. It attaches
// to the database's commit-delta hook, so subscriptions observe every
// committed OG — from feeds and from offline ingest alike.
type Service struct {
	opts   Options
	engine *Engine

	mu     sync.Mutex
	feeds  map[string]*Feed
	closed bool
}

// Open starts a feed service: recovers every feed journaled under
// opts.Dir (redoing or acknowledging any in-flight epoch commit against
// the database) and attaches the standing-query engine to the database's
// commit hook.
func Open(o Options) (*Service, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("feed: creating %s: %w", opts.Dir, err)
	}
	s := &Service{opts: opts, feeds: make(map[string]*Feed)}

	entries, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("feed: scanning %s: %w", opts.Dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() || !ValidID(e.Name()) {
			continue
		}
		f, err := s.recoverFeed(e.Name())
		if err != nil {
			s.closeFeeds()
			return nil, err
		}
		if f == nil {
			continue // creation crashed before anything was acknowledged
		}
		s.feeds[f.id] = f
	}
	feedsOpen.Set(int64(len(s.feeds)))

	s.engine = newEngine(opts.DB, opts.RingSize)
	opts.DB.OnCommitDelta(s.engine.enqueueDelta)
	return s, nil
}

// Feed returns the open feed with the given ID.
func (s *Service) Feed(id string) (*Feed, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.feeds[id]
	return f, ok
}

// Open returns the feed with the given ID, creating it if absent. An
// existing feed's geometry must match meta — a feed's identity is fixed
// at creation.
func (s *Service) Open(id string, meta Meta) (*Feed, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("feed: invalid feed ID %q", id)
	}
	if err := meta.validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("feed: service closed")
	}
	if f, ok := s.feeds[id]; ok {
		if f.meta != meta {
			return nil, fmt.Errorf("feed: %s exists with geometry %gx%g@%g, not %gx%g@%g",
				id, f.meta.Width, f.meta.Height, f.meta.FPS, meta.Width, meta.Height, meta.FPS)
		}
		return f, nil
	}
	f, err := s.createFeed(id, meta)
	if err != nil {
		return nil, err
	}
	s.feeds[id] = f
	feedsOpen.Set(int64(len(s.feeds)))
	return f, nil
}

// Feeds returns a snapshot of every open feed's state, sorted by ID.
func (s *Service) Feeds() []State {
	s.mu.Lock()
	feeds := make([]*Feed, 0, len(s.feeds))
	for _, f := range s.feeds {
		feeds = append(feeds, f)
	}
	s.mu.Unlock()
	states := make([]State, len(feeds))
	for i, f := range feeds {
		states[i] = f.State()
	}
	sort.Slice(states, func(i, j int) bool { return states[i].ID < states[j].ID })
	return states
}

// Engine returns the standing-query engine.
func (s *Service) Engine() *Engine { return s.engine }

// Close detaches the commit hook, stops the engine and closes every
// journal. Pending frames stay journaled and recover on the next Open.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.opts.DB.OnCommitDelta(nil)
	s.engine.Close()
	return s.closeFeeds()
}

func (s *Service) closeFeeds() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range s.feeds {
		if err := f.close(); err != nil && first == nil {
			first = err
		}
	}
	feedsOpen.Set(0)
	return first
}

// createFeed initializes a fresh journal chain: the directory, then
// journal 1 headed by the checkpoint of epoch 0.
func (s *Service) createFeed(id string, meta Meta) (*Feed, error) {
	dir := filepath.Join(s.opts.Dir, id)
	if err := s.opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("feed: creating %s: %w", dir, err)
	}
	f := &Feed{svc: s, id: id, meta: meta, journal: wal.NewChain(s.opts.FS, dir, journalPrefix)}
	head, err := f.checkpointLocked()
	if err != nil {
		return nil, err
	}
	if _, err := f.journal.Rotate(head); err != nil {
		return nil, fmt.Errorf("feed: creating journal for %s: %w", id, err)
	}
	return f, nil
}

// recoverFeed rebuilds one feed from its journal chain: it finds the
// newest checkpoint and applies records; the chain's rule does the rest.
func (s *Service) recoverFeed(id string) (*Feed, error) {
	dir := filepath.Join(s.opts.Dir, id)
	journal := wal.NewChain(s.opts.FS, dir, journalPrefix)
	seqs, err := journal.List()
	if err != nil {
		return nil, fmt.Errorf("feed: scanning %s: %w", dir, err)
	}
	var start uint64
	var m *metaRec
	intact := false
	for i := len(seqs) - 1; i >= 0 && m == nil; i-- {
		head, err := journal.Head(seqs[i])
		if err != nil {
			return nil, fmt.Errorf("feed: %s: %w", id, err)
		}
		if head == nil {
			continue
		}
		intact = true
		rec, err := decodeRec(head)
		if err != nil {
			return nil, fmt.Errorf("feed: %s: %s: %w", id, journal.Path(seqs[i]), err)
		}
		if rec.Kind == recMeta {
			start, m = seqs[i], rec.Meta
		}
	}
	if m == nil {
		if intact {
			return nil, fmt.Errorf("feed: %s has journaled records but no checkpoint under them", id)
		}
		// Creation crashed before its checkpoint landed: nothing was ever
		// acknowledged, so the feed never existed.
		return nil, journal.Prune(math.MaxUint64)
	}
	if m.ID != id {
		return nil, fmt.Errorf("feed: %s checkpoint does not describe feed %s", journal.Path(start), id)
	}
	if err := m.Meta.validate(); err != nil {
		return nil, err
	}
	f := &Feed{svc: s, id: id, meta: m.Meta, epoch: m.Epoch, next: m.NextFrame, journal: journal}

	_, err = journal.Recover(start, func(seq uint64, off int64, payload []byte) error {
		if seq == start && off == wal.HeaderSize {
			return nil // the checkpoint, read above
		}
		rec, err := decodeRec(payload)
		if err != nil {
			return err
		}
		switch rec.Kind {
		case recFrames:
			for _, fr := range rec.Frames {
				if fr.Index != f.next {
					return fmt.Errorf("feed: %s journal frame %d where %d expected", id, fr.Index, f.next)
				}
				f.trackLocked(fr)
				f.next++
			}
		case recIntent:
			if rec.Epoch != f.epoch || f.open == nil {
				return fmt.Errorf("feed: %s intent for epoch %d where epoch %d with frames expected", id, rec.Epoch, f.epoch)
			}
			// The database's per-stream segment count says whether the
			// commit landed before the crash. If not, the redo commits the
			// STRG replay just rebuilt — frames and name are a pure
			// function of the journal — so there is one commit either way.
			if s.opts.DB.SegmentsIn(id) <= f.epoch {
				if err := s.opts.DB.IngestBuilt(id, f.open); err != nil {
					return fmt.Errorf("feed: %s redoing epoch %d commit: %w", id, f.epoch, err)
				}
			}
			f.epoch++
			f.open = nil
		default:
			return fmt.Errorf("feed: %s has a record of kind %d at %s offset %d", id, rec.Kind, journal.Path(seq), off)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if f.epoch != m.Epoch && f.open == nil {
		// Commits resolved during replay are now checkpointed into a
		// fresh journal, restoring the sealed-chain invariant. Frames
		// journaled after the last intent (a rotation that failed after
		// its commit) live only in this chain, so while there are any the
		// chain stays as it is and the next recovery acknowledges the
		// intents again through SegmentsIn.
		f.mu.Lock()
		err = f.rotateLocked()
		f.mu.Unlock()
		if err != nil {
			f.journal.Log().Close()
			return nil, err
		}
	}
	return f, nil
}
