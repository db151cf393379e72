package core

import (
	"strgindex/internal/dist"
	"strgindex/internal/strg"
)

// CommitDelta describes one segment commit: exactly the Object Graphs (and
// their clip records) that entered the index when that commit's tree was
// published.
// The standing-query engine (internal/feed) consumes these to evaluate
// subscriptions incrementally — per-OG predicate matching against only the
// delta instead of rescanning the corpus.
type CommitDelta struct {
	// Stream and Segment identify the commit.
	Stream  string
	Segment string
	// Records and OGs are aligned: Records[i] is the clip record indexed for
	// OGs[i], and Records[i].OGID is the database ID. OGIDs are dense and
	// globally monotone in commit order, which is what lets a consumer prove
	// exactly-once processing by watermark. The OG pointers are the retained
	// graphs themselves — treat them as immutable. Blocks[i] is OGs[i]'s
	// attribute sequence in the columnar form the batched distance kernel
	// reads (the database's own stored copy, equally immutable), so a
	// consumer matching many standing queries against one OG flattens it
	// zero times.
	Records []ClipRecord
	OGs     []*strg.OG
	Blocks  []dist.Block
}

// SegmentsIn returns how many segments have been committed under stream —
// the read-your-writes primitive a feed uses to reconcile its journal
// against the database after a crash (was epoch N's commit applied?).
func (db *VideoDB) SegmentsIn(stream string) int { return db.streamSegs[stream] }

// OnCommitDelta registers fn to run at the end of every segment commit,
// inside the commit's critical section. fn must be fast and must not call
// back into the database (on a SharedDB the write lock is held); the
// intended use is handing the delta to a queue that a dispatcher goroutine
// drains.
func (db *VideoDB) OnCommitDelta(fn func(CommitDelta)) { db.onDelta = fn }

// OnCommitDelta is VideoDB.OnCommitDelta under the write lock.
func (s *SharedDB) OnCommitDelta(fn func(CommitDelta)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.OnCommitDelta(fn)
}

// SegmentsIn is VideoDB.SegmentsIn under a read lock.
func (s *SharedDB) SegmentsIn(stream string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.SegmentsIn(stream)
}
