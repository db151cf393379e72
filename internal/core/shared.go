package core

import (
	"context"
	"io"
	"sync"

	"strgindex/internal/query"
	"strgindex/internal/strg"
	"strgindex/internal/video"
)

// SharedDB wraps a VideoDB for concurrent use: queries run in parallel
// with each other (see QueryComposedCtx for when they also run in parallel
// with ingest); ingest and persistence take the write lock. A live
// deployment ingests from one camera goroutine while serving queries from
// many.
//
// A SharedDB opened with OpenDurable is additionally crash-safe: every
// ingest is appended to a write-ahead log before it mutates state, and
// snapshots fold the log down in the background (see durable.go).
type SharedDB struct {
	mu  sync.RWMutex
	db  *VideoDB
	dur *durable
	// replica seals the external ingest surface: mutations arrive only
	// through ApplyReplicated (see replication.go).
	replica bool
}

// OpenShared creates an empty concurrent database.
func OpenShared(cfg Config) *SharedDB {
	return &SharedDB{db: Open(cfg)}
}

// LoadShared reads a database persisted with Save.
func LoadShared(r io.Reader, cfg Config) (*SharedDB, error) {
	db, err := Load(r, cfg)
	if err != nil {
		return nil, err
	}
	return &SharedDB{db: db}, nil
}

// IngestSegment runs the pipeline on one segment under the write lock.
// On a durable database what the pipeline built is write-ahead logged
// before any state mutates.
func (s *SharedDB) IngestSegment(stream string, seg *video.Segment) (*IngestStats, error) {
	if s.replica {
		return nil, ErrReplica
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.db.IngestSegment(stream, seg)
	s.afterIngestLocked(err)
	return st, err
}

// IngestBuilt commits an STRG the caller has already built — a live feed's
// epoch, tracked frame by frame as it arrived (see STRGConfig) — as one
// segment named g.Segment.Name. Decomposition runs before the write lock,
// which is held only for the commit. g must not change until it returns.
func (s *SharedDB) IngestBuilt(stream string, g *strg.STRG) error {
	if s.replica {
		return ErrReplica
	}
	rec := s.db.recordOf(stream, g)
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.db.commitSegment(rec)
	s.afterIngestLocked(err)
	return err
}

// STRGConfig returns the STRG configuration the database ingests with:
// an STRG built under it and handed to IngestBuilt commits exactly what
// IngestSegment of the same frames would.
func (s *SharedDB) STRGConfig() strg.Config { return s.db.cfg.STRG }

// QueryComposedCtx is VideoDB.QueryComposedCtx for concurrent callers, and
// the one place the query lock rule lives: a query goes lock-free only
// when its plan reads nothing but the sharded index (StrategyIndex) — the
// index publishes immutable copy-on-write snapshots, so the search
// assembles a consistent view and never waits on an in-flight ingest.
// Every other plan
// reads state that ingest mutates in place under the write lock — the
// retained OGs and records, the trajectory R-tree, the approximate tier's
// IVF lists and rerank caches — and holds the read lock from planning
// through execution.
func (s *SharedDB) QueryComposedCtx(ctx context.Context, q *query.Query) (*QueryResult, error) {
	if err := query.Validate(q); err != nil {
		return nil, err
	}
	if !indexOnly(q) {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.db.run(ctx, q)
}

// CheckSpatialIndex is VideoDB.CheckSpatialIndex under a read lock.
func (s *SharedDB) CheckSpatialIndex() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.CheckSpatialIndex()
}

// Stats is VideoDB.Stats under a read lock.
func (s *SharedDB) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Stats()
}

// Save persists the database under the write lock (the snapshot must not
// race with ingest).
func (s *SharedDB) Save(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.Save(w)
}

// QuiesceIndex waits out in-flight asynchronous split evaluations.
func (s *SharedDB) QuiesceIndex() { s.db.QuiesceIndex() }
