package feed

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/faultfs"
	"strgindex/internal/query"
	"strgindex/internal/video"
	"strgindex/internal/wal"
)

// feedFrames generates a deterministic synthetic camera feed: a lab-style
// stream flattened to one contiguous frame sequence.
func feedFrames(t *testing.T, nObjects int, seed int64) ([]video.Frame, Meta) {
	t.Helper()
	p := video.StreamProfile{
		Name: "Mini", Kind: video.KindLab,
		NumObjects: nObjects, SegmentFrames: 16, ObjectsPerSegment: 2,
	}
	s, err := video.GenerateStream(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	first := s.Segments[0]
	meta := Meta{Width: first.Width, Height: first.Height, FPS: first.FPS}
	var frames []video.Frame
	for _, seg := range s.Segments {
		for _, f := range seg.Frames {
			f.Index = len(frames)
			frames = append(frames, f)
		}
	}
	return frames, meta
}

func shardConfig(shards int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Index.Shards = shards
	return cfg
}

// querySig folds k-NN answers AND their SearchStats into one comparable
// string — the byte-identity witness of the replay-determinism contract.
func querySig(t *testing.T, db *core.SharedDB) string {
	t.Helper()
	var sig strings.Builder
	for _, traj := range []dist.Sequence{
		{{20, 120}, {100, 120}, {180, 120}, {280, 120}},
		{{160, 20}, {160, 120}, {160, 220}},
		{{40, 40}, {120, 100}, {240, 200}},
	} {
		for _, exact := range []bool{true, false} {
			res, err := db.QueryComposedCtx(context.Background(), &query.Query{
				Similar: &query.SimilarClause{Trajectory: traj, K: 5, Exact: exact},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res.Matches {
				fmt.Fprintf(&sig, "%d:%x;", m.Record.OGID, m.Distance)
			}
			fmt.Fprintf(&sig, "%+v|", res.Search)
		}
	}
	return sig.String()
}

func snapshotBytes(t *testing.T, db *core.SharedDB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func renumbered(frames []video.Frame) []video.Frame {
	out := make([]video.Frame, len(frames))
	copy(out, frames)
	for i := range out {
		out[i].Index = i
	}
	return out
}

// TestFeedReplayDeterminism is the tentpole contract at shard counts 1, 2
// and 4: a database fed frame batches through the live path is
// byte-identical — k-NN answers, SearchStats, Stats and snapshot bytes —
// to one that one-shot IngestSegments the same epoch slices.
func TestFeedReplayDeterminism(t *testing.T) {
	frames, meta := feedFrames(t, 8, 42)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := shardConfig(shards)
			dbA := core.OpenShared(cfg)
			svc, err := Open(Options{
				Dir: t.TempDir(), DB: dbA, STRG: &cfg.STRG,
				MinEpochFrames: 12, MaxEpochFrames: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			f, err := svc.Open("cam", meta)
			if err != nil {
				t.Fatal(err)
			}
			var bounds []int
			for i := 0; i < len(frames); i += 7 {
				end := min(i+7, len(frames))
				res, err := f.Append(frames[i:end])
				if err != nil {
					t.Fatal(err)
				}
				if res.Accepted != end-i || res.Duplicates != 0 {
					t.Fatalf("append [%d:%d): %+v", i, end, res)
				}
				if res.Flushed {
					bounds = append(bounds, res.NextFrame)
				}
			}
			if err := f.Flush(); err != nil {
				t.Fatal(err)
			}
			if len(bounds) == 0 || bounds[len(bounds)-1] != len(frames) {
				bounds = append(bounds, len(frames))
			}
			st := f.State()
			if st.Pending != 0 || st.NextFrame != len(frames) || st.Epoch != len(bounds) {
				t.Fatalf("post-flush state %+v, want %d epochs over %d frames", st, len(bounds), len(frames))
			}
			if got := dbA.SegmentsIn("cam"); got != len(bounds) {
				t.Fatalf("SegmentsIn = %d, want %d", got, len(bounds))
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}

			dbB := core.OpenShared(cfg)
			last := 0
			for e, b := range bounds {
				seg := &video.Segment{
					Name:  fmt.Sprintf("cam/%06d", e),
					Width: meta.Width, Height: meta.Height, FPS: meta.FPS,
					Frames: renumbered(frames[last:b]),
				}
				if _, err := dbB.IngestSegment("cam", seg); err != nil {
					t.Fatal(err)
				}
				last = b
			}
			if got, want := querySig(t, dbA), querySig(t, dbB); got != want {
				t.Errorf("feed-ingested answers diverge from one-shot ingest:\nfeed: %s\nshot: %s", got, want)
			}
			if a, b := dbA.Stats(), dbB.Stats(); a != b {
				t.Errorf("Stats diverge: feed %+v, one-shot %+v", a, b)
			}
			if !bytes.Equal(snapshotBytes(t, dbA), snapshotBytes(t, dbB)) {
				t.Error("snapshot bytes diverge between feed and one-shot ingest")
			}
		})
	}
}

// TestFeedIdenticalRunsIdenticalBytes: two independent feed runs over the
// same frames and batching produce byte-identical snapshots.
func TestFeedIdenticalRunsIdenticalBytes(t *testing.T) {
	frames, meta := feedFrames(t, 6, 9)
	run := func() []byte {
		cfg := shardConfig(2)
		db := core.OpenShared(cfg)
		svc, err := Open(Options{Dir: t.TempDir(), DB: db, STRG: &cfg.STRG, MinEpochFrames: 10})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		f, err := svc.Open("cam", meta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(frames); i += 5 {
			if _, err := f.Append(frames[i:min(i+5, len(frames))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		return snapshotBytes(t, db)
	}
	if !bytes.Equal(run(), run()) {
		t.Error("identical feed runs produced different snapshot bytes")
	}
}

// durableFeedRun drives a feed over a durable database, optionally
// closing and reopening everything mid-feed (restartAt is the batch index
// before which the restart happens; negative disables). The restarted run
// re-sends its last acknowledged batch to prove duplicate skipping.
func durableFeedRun(t *testing.T, frames []video.Frame, meta Meta, batch, restartAt int) ([]byte, string, core.Stats) {
	t.Helper()
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	open := func() (*core.SharedDB, *Service, *Feed) {
		db, _, err := core.OpenDurable(cfg, core.Durability{
			Dir: filepath.Join(dir, "db"), SnapshotOps: -1, SnapshotBytes: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := Open(Options{
			Dir: filepath.Join(dir, "feeds"), DB: db, STRG: &cfg.STRG,
			MinEpochFrames: 12, MaxEpochFrames: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := svc.Open("cam", meta)
		if err != nil {
			t.Fatal(err)
		}
		return db, svc, f
	}
	db, svc, f := open()
	for i := 0; i*batch < len(frames); i++ {
		if i == restartAt {
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, svc, f = open()
			st := f.State()
			if st.NextFrame != i*batch {
				t.Fatalf("restart resumed at frame %d, want %d", st.NextFrame, i*batch)
			}
			if got := db.SegmentsIn("cam"); got != st.Epoch {
				t.Fatalf("restart: SegmentsIn = %d, epoch = %d", got, st.Epoch)
			}
			if i > 0 {
				// The client re-sends its last batch after a reconnect;
				// every frame must be recognized as a duplicate.
				res, err := f.Append(frames[(i-1)*batch : i*batch])
				if err != nil {
					t.Fatal(err)
				}
				if res.Accepted != 0 || res.Duplicates != batch {
					t.Fatalf("duplicate re-send: %+v", res)
				}
			}
		}
		end := min((i+1)*batch, len(frames))
		if _, err := f.Append(frames[i*batch : end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, sig, stats := snapshotBytes(t, db), querySig(t, db), db.Stats()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return snap, sig, stats
}

// TestFeedDurableRestartResume: a durable restart mid-feed — mid-epoch,
// with journaled-but-uncommitted frames — resumes without duplicating or
// losing a single OG: the finished database is byte-identical to an
// uninterrupted run.
func TestFeedDurableRestartResume(t *testing.T) {
	frames, meta := feedFrames(t, 8, 7)
	const batch = 5
	refSnap, refSig, refStats := durableFeedRun(t, frames, meta, batch, -1)
	for _, restartAt := range []int{0, 3, 5} {
		snap, sig, stats := durableFeedRun(t, frames, meta, batch, restartAt)
		if sig != refSig {
			t.Errorf("restart at batch %d: answers diverge from uninterrupted run", restartAt)
		}
		if stats != refStats {
			t.Errorf("restart at batch %d: Stats %+v, want %+v", restartAt, stats, refStats)
		}
		if !bytes.Equal(snap, refSnap) {
			t.Errorf("restart at batch %d: snapshot bytes diverge", restartAt)
		}
	}
}

// TestFeedCrashMatrix kills the journal filesystem at every fsync of a
// feed run — mid-append, mid-intent, mid-rotation — and proves recovery
// holds the ledger invariants: no acknowledged frame is lost, no epoch is
// committed twice or dropped, and the run can always be completed.
func TestFeedCrashMatrix(t *testing.T) {
	frames, meta := feedFrames(t, 6, 13)
	cleanRuns := 0
	for n := 0; n < 300; n++ {
		label := fmt.Sprintf("sync budget %d", n)
		fsys := faultfs.NewInject(nil, faultfs.Config{WriteBudget: -1, FailSyncAfter: n})
		if !feedCrashCase(t, label, fsys, frames, meta) {
			continue
		}
		cleanRuns++
		if cleanRuns >= 3 {
			return // budget exceeds every fsync in a full run: matrix done
		}
	}
	t.Fatal("crash matrix never reached a clean run; raise the sync cap")
}

// TestFeedCrashMatrixWriteBudget is the byte-cut twin of
// TestFeedCrashMatrix: the disk dies after a budget of durable bytes, so a
// write is torn — a frames batch, an intent, a journal header or the
// checkpoint heading a rotated journal — where a failed sync always lands
// whole. The budgets are every write boundary of a clean run plus tears
// inside each write (faultfs.CrashPoints).
func TestFeedCrashMatrixWriteBudget(t *testing.T) {
	frames, meta := feedFrames(t, 6, 13)
	ends := []int64{0}
	if !feedCrashCase(t, "counting run", countFS{faultfs.OS{}, &ends}, frames, meta) {
		t.Fatal("counting run crashed")
	}
	for _, cut := range faultfs.CrashPoints(ends) {
		fsys := faultfs.NewInject(nil, faultfs.Config{WriteBudget: cut, FailSyncAfter: -1})
		clean := feedCrashCase(t, fmt.Sprintf("write budget %d", cut), fsys, frames, meta)
		if clean != (cut == ends[len(ends)-1]) {
			t.Fatalf("write budget %d of %d: clean = %v", cut, ends[len(ends)-1], clean)
		}
	}
}

// feedCrashCase runs one feed to completion with its journals on fsys and
// reports whether the run was clean. A crashed run is recovered on a
// healthy disk and must keep the ledger invariants, then finish the feed.
func feedCrashCase(t *testing.T, label string, fsys faultfs.FS, frames []video.Frame, meta Meta) bool {
	t.Helper()
	const batch = 6
	cfg := core.DefaultConfig()
	db := core.OpenShared(cfg)
	dir := t.TempDir()
	opts := Options{Dir: dir, FS: fsys, DB: db, STRG: &cfg.STRG,
		MinEpochFrames: 10, MaxEpochFrames: 24}

	acked, crashed := 0, false
	svc, err := Open(opts)
	if err != nil {
		t.Fatalf("%s: service open on a fresh dir wrote nothing durable, yet failed: %v", label, err)
	}
	f, err := svc.Open("cam", meta)
	if err != nil {
		crashed = true
	}
	if !crashed {
		for i := 0; i*batch < len(frames); i++ {
			res, aerr := f.Append(frames[i*batch : min((i+1)*batch, len(frames))])
			if res.NextFrame > acked {
				acked = res.NextFrame
			}
			if aerr != nil {
				crashed = true
				break
			}
		}
	}
	if !crashed {
		if err := f.Flush(); err != nil {
			crashed = true
		}
	}
	svc.Close() // best-effort; the dead disk may refuse the final syncs

	if !crashed {
		st := f.State()
		if st.NextFrame != len(frames) || st.Pending != 0 {
			t.Fatalf("%s: clean run ended at %+v", label, st)
		}
		if got := db.SegmentsIn("cam"); got != st.Epoch || db.Stats().Segments != st.Epoch {
			t.Fatalf("%s: %d segments for %d epochs", label, got, st.Epoch)
		}
		return true
	}

	// Recover on a healthy disk against the SAME database — the in-memory
	// state stands in for the durable store that survives alongside the
	// journal in production.
	svc2, err := Open(Options{Dir: dir, FS: faultfs.OS{}, DB: db, STRG: &cfg.STRG,
		MinEpochFrames: 10, MaxEpochFrames: 24})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	f2, ok := svc2.Feed("cam")
	if !ok {
		// The crash predated a durable feed creation; nothing was
		// acknowledged, so recreating is the correct client move.
		if acked != 0 {
			t.Fatalf("%s: %d frames acked but feed gone", label, acked)
		}
		if f2, err = svc2.Open("cam", meta); err != nil {
			t.Fatal(err)
		}
	}
	st := f2.State()
	if st.NextFrame < acked {
		t.Fatalf("%s: acked %d frames, recovered only %d", label, acked, st.NextFrame)
	}
	if st.NextFrame > len(frames) {
		t.Fatalf("%s: recovered %d frames, only %d were ever sent", label, st.NextFrame, len(frames))
	}
	if got := db.SegmentsIn("cam"); got != st.Epoch {
		t.Fatalf("%s: SegmentsIn = %d but epoch = %d (lost or doubled commit)", label, got, st.Epoch)
	}
	// The client resumes from the probed cursor and finishes the feed.
	for i := st.NextFrame; i < len(frames); i += batch {
		if _, err := f2.Append(frames[i:min(i+batch, len(frames))]); err != nil {
			t.Fatalf("%s: resumed append: %v", label, err)
		}
	}
	if err := f2.Flush(); err != nil {
		t.Fatalf("%s: final flush: %v", label, err)
	}
	fin := f2.State()
	if fin.NextFrame != len(frames) || fin.Pending != 0 {
		t.Fatalf("%s: completed run state %+v", label, fin)
	}
	if got := db.SegmentsIn("cam"); got != fin.Epoch || db.Stats().Segments != fin.Epoch {
		t.Fatalf("%s: %d segments for %d epochs after completion", label, got, fin.Epoch)
	}
	if db.Stats().OGs == 0 {
		t.Fatalf("%s: completed feed produced no OGs", label)
	}
	if err := svc2.Close(); err != nil {
		t.Fatalf("%s: closing recovered service: %v", label, err)
	}
	return false
}

// countFS records the cumulative bytes after every file write: the
// boundaries of a byte-cut crash matrix.
type countFS struct {
	faultfs.FS
	ends *[]int64
}

type countFile struct {
	faultfs.File
	ends *[]int64
}

func (c countFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{f, c.ends}, nil
}

func (f countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	*f.ends = append(*f.ends, (*f.ends)[len(*f.ends)-1]+int64(n))
	return n, err
}

// TestFeedDamagedJournalRefused: a journal record whose checksum passes
// but which does not decode, or intact records with no checkpoint under
// them, refuse the feed — Open fails and the journal stays on disk for an
// operator, where deleting it would drop acknowledged frames silently.
func TestFeedDamagedJournalRefused(t *testing.T) {
	frames, _ := feedFrames(t, 2, 3)
	framesRec, err := encodeRec(journalRec{Kind: recFrames, Frames: frames[:1]})
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"undecodable":   []byte("CRC-valid garbage, not a journal record"),
		"no checkpoint": framesRec,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := wal.NewChain(faultfs.OS{}, filepath.Join(dir, "cam"), journalPrefix).Path(1)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			l, err := wal.Create(faultfs.OS{}, path)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(payload); err != nil {
				t.Fatal(err)
			}
			l.Close()
			cfg := core.DefaultConfig()
			if svc, err := Open(Options{Dir: dir, DB: core.OpenShared(cfg), STRG: &cfg.STRG}); err == nil {
				svc.Close()
				t.Fatal("Open accepted a damaged journal")
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("damaged journal not left in place: %v", err)
			}
		})
	}
}
