package core

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strgindex/internal/dist"
	"strgindex/internal/index"
	"strgindex/internal/query"
	"strgindex/internal/video"
)

// soakDuration returns how long the soak loops run: STRG_SOAK_MS in the
// environment overrides the default (short by design so `go test -race`
// stays fast; CI or a manual run can stretch it to minutes).
func soakDuration(t *testing.T) time.Duration {
	if v := os.Getenv("STRG_SOAK_MS"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			t.Fatalf("bad STRG_SOAK_MS=%q", v)
		}
		return time.Duration(ms) * time.Millisecond
	}
	return 1500 * time.Millisecond
}

// checkSearchStats asserts the cascade accounting identity: every record
// that enters the cascade is dispatched to exactly one fate.
func checkSearchStats(t *testing.T, kind string, st index.SearchStats) {
	t.Helper()
	if got := st.LBQuickPruned + st.LBEnvelopePruned + st.DPEvaluated + st.DPAbandoned; got != st.Records {
		t.Errorf("%s: SearchStats fates %d != Records %d (%+v)", kind, got, st.Records, st)
	}
	if st.ScannedLeaves > st.CandidateLeaves {
		t.Errorf("%s: scanned %d of %d candidate leaves", kind, st.ScannedLeaves, st.CandidateLeaves)
	}
}

// TestSharedDBSoak hammers one durable SharedDB from concurrent ingest,
// k-NN, exact k-NN, range, freshness, and checkpoint goroutines for the
// soak duration, then verifies the survivors. It is the -race witness for
// the copy-on-write index: queries run lock-free against published shard
// snapshots while ingest, background splits, and checkpoints mutate and
// persist state.
//
// Invariants enforced while the storm runs:
//   - every SearchStats block satisfies the cascade accounting identity;
//   - matches arrive sorted by distance, never exceeding k or the radius;
//   - shard versions only ever increase (snapshots are monotone);
//   - reads are never stale past a completed write: once IngestSegment
//     returns, an exact query must see every committed item (stronger
//     than the two-version staleness budget — the lag is zero).
//
// After the storm: a final checkpoint, reopen, and byte-identity check of
// query answers against the pre-close database.
func TestSharedDBSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Concurrency = 2
	cfg.Index.Shards = 3
	cfg.Index.AsyncSplit = true
	db, _, err := OpenDurable(cfg, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-generate the ingest diet: segments from several lab streams,
	// fed round-robin under distinct stream names so roots and clusters
	// keep growing (and splitting) for the whole soak.
	type feedItem struct {
		stream string
		seg    *video.Segment
	}
	var feed []feedItem
	for s := 0; s < 4; s++ {
		stream := miniStream(t, 6, int64(40+s))
		name := "soak-" + strconv.Itoa(s)
		for _, seg := range stream.Segments {
			feed = append(feed, feedItem{name, seg})
		}
	}

	deadline := time.After(soakDuration(t))
	stop := make(chan struct{})
	go func() { <-deadline; close(stop) }()

	queries := []dist.Sequence{
		{{16, 120}, {46, 120}, {76, 120}, {106, 120}},
		{{200, 40}, {200, 80}, {200, 120}},
		{{60, 60}, {90, 90}, {120, 120}, {150, 150}, {180, 180}},
	}
	var (
		wg        sync.WaitGroup
		committed atomic.Int64 // items acked by IngestSegment so far
		ingested  atomic.Int64 // segments acked
		searches  atomic.Int64
	)

	// Ingest: one writer, the paper's incremental-insertion path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			it := feed[i%len(feed)]
			st, err := db.IngestSegment(it.stream, it.seg)
			if err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			committed.Add(int64(st.OGs))
			ingested.Add(1)
		}
	}()

	// Freshness: reads must never be stale past a completed write. Every
	// round captures the committed item count, then demands an exact
	// query return at least that many matches — a dropped item means a
	// query served a snapshot older than an acknowledged commit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			floor := committed.Load()
			got, st, err := search(db, query.SimilarClause{Trajectory: queries[0], K: int(floor) + 64, Exact: true})
			if err != nil {
				t.Errorf("freshness query: %v", err)
				return
			}
			checkSearchStats(t, "freshness", st)
			if int64(len(got)) < floor {
				t.Errorf("stale read: %d matches, but %d items were committed before the query", len(got), floor)
				return
			}
			searches.Add(1)
			time.Sleep(300 * time.Microsecond)
		}
	}()

	// Version monotonicity: published shard snapshots only move forward.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := make([]uint64, cfg.Index.Shards)
		for {
			select {
			case <-stop:
				return
			default:
			}
			vs := db.db.tree.Versions()
			for i, v := range vs {
				if v < last[i] {
					t.Errorf("shard %d version went backwards: %d -> %d", i, last[i], v)
					return
				}
				last[i] = v
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Approximate k-NN readers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(w+i)%len(queries)]
				got, st, err := search(db, query.SimilarClause{Trajectory: q, K: 5})
				if err != nil {
					t.Errorf("knn: %v", err)
					return
				}
				checkSearchStats(t, "knn", st)
				if len(got) > 5 {
					t.Errorf("knn returned %d > k=5 matches", len(got))
					return
				}
				for j := 1; j < len(got); j++ {
					if got[j].Distance < got[j-1].Distance {
						t.Errorf("knn matches unsorted: %v after %v", got[j].Distance, got[j-1].Distance)
						return
					}
				}
				searches.Add(1)
				// Light pacing: a reader saturating every core would starve
				// the (fsync-bound) ingest path out of the soak entirely.
				time.Sleep(300 * time.Microsecond)
			}
		}(w)
	}

	// Range reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			const radius = 900.0
			got, st, err := search(db, query.SimilarClause{Trajectory: queries[i%len(queries)], Radius: radius})
			if err != nil {
				t.Errorf("range: %v", err)
				return
			}
			checkSearchStats(t, "range", st)
			for _, m := range got {
				if m.Distance > radius {
					t.Errorf("range match at distance %v > radius %v", m.Distance, radius)
					return
				}
			}
			searches.Add(1)
			time.Sleep(300 * time.Microsecond)
		}
	}()

	// Spatial-index auditor: the trajectory R-tree must stay structurally
	// sound and exactly cover the retained OGs while ingest keeps
	// mutating it (runs under the read lock, interleaved with writes).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.CheckSpatialIndex(); err != nil {
				t.Errorf("spatial index: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Checkpointer: periodically folds the WAL into a snapshot while
	// everything above keeps running.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := db.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}
	if ingested.Load() == 0 || searches.Load() == 0 {
		t.Fatalf("soak did no work: %d segments, %d searches", ingested.Load(), searches.Load())
	}
	t.Logf("soak: %d segments ingested, %d items, %d searches", ingested.Load(), committed.Load(), searches.Load())

	// Settle and take final answers.
	db.QuiesceIndex()
	if err := db.CheckSpatialIndex(); err != nil {
		t.Fatalf("spatial index after soak: %v", err)
	}
	want := make([][]Match, len(queries))
	for i, q := range queries {
		want[i] = knnExact(t, db, q, 20)
	}
	st := db.Stats()
	if int64(st.OGs) != committed.Load() {
		t.Errorf("Stats.OGs = %d, committed %d", st.OGs, committed.Load())
	}
	// Fold the whole log into a final snapshot so the reopen below is a
	// deterministic snapshot load, not a replay racing async splits.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery must reconstruct the identical database.
	re, _, err := OpenDurable(cfg, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.QuiesceIndex()
	if err := re.CheckSpatialIndex(); err != nil {
		t.Fatalf("spatial index after recovery: %v", err)
	}
	if got := re.Stats(); got != st {
		t.Fatalf("recovered Stats = %+v, want %+v", got, st)
	}
	for i, q := range queries {
		got := knnExact(t, re, q, 20)
		if len(got) != len(want[i]) {
			t.Fatalf("query %d: %d matches after recovery, want %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("query %d match %d = %+v after recovery, want %+v", i, j, got[j], want[i][j])
			}
		}
	}
}
