package feed

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/faultfs"
	"strgindex/internal/geom"
	"strgindex/internal/obs"
	"strgindex/internal/strg"
	"strgindex/internal/video"
	"strgindex/internal/wal"
)

// buildCounts reads how often strg.Build has run its two phases in this
// process.
func buildCounts() [2]int64 {
	return [2]int64{
		obs.Default.Histogram("strg_build_rag_seconds", "", nil, nil).Count(),
		obs.Default.Histogram("strg_build_track_seconds", "", nil, nil).Count(),
	}
}

// oneShot ingests frames cut at bounds as the segments cam/000000,
// cam/000001, … into a fresh database — the reference a feed must equal.
func oneShot(t *testing.T, cfg core.Config, frames []video.Frame, meta Meta, bounds []int) *core.SharedDB {
	t.Helper()
	db := core.OpenShared(cfg)
	last := 0
	for e, b := range bounds {
		seg := &video.Segment{
			Name:  fmt.Sprintf("cam/%06d", e),
			Width: meta.Width, Height: meta.Height, FPS: meta.FPS,
			Frames: renumbered(frames[last:b]),
		}
		if _, err := db.IngestSegment("cam", seg); err != nil {
			t.Fatal(err)
		}
		last = b
	}
	return db
}

// TestFeedCommitDoesNotRebuild: an epoch commit hands the STRG the feed
// tracked frame by frame to the database — it runs no strg.Build.
func TestFeedCommitDoesNotRebuild(t *testing.T) {
	frames, meta := feedFrames(t, 6, 17)
	db := core.OpenShared(core.DefaultConfig())
	svc, err := Open(Options{Dir: t.TempDir(), DB: db, MinEpochFrames: 1 << 20, MaxEpochFrames: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	f, err := svc.Open("cam", meta)
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 16
	for start := 0; start < len(frames); start += epoch {
		if _, err := f.Append(frames[start:min(start+epoch, len(frames))]); err != nil {
			t.Fatal(err)
		}
		before := buildCounts()
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := buildCounts(); got != before {
			t.Fatalf("committing the epoch at frame %d ran strg.Build: counts %v -> %v", start, before, got)
		}
	}
	if got, want := db.SegmentsIn("cam"), (len(frames)+epoch-1)/epoch; got != want || db.Stats().OGs == 0 {
		t.Fatalf("%d commits, %d OGs; want %d commits and some OGs", got, db.Stats().OGs, want)
	}
}

// TestFeedSTRGOptionIgnored: Options.STRG is deprecated and inert — a feed
// opened with a deliberately different configuration tracks and commits
// under the database's own, byte-identical to one-shot ingest.
func TestFeedSTRGOptionIgnored(t *testing.T) {
	frames, meta := feedFrames(t, 6, 23)
	cfg := shardConfig(2)
	other := strg.DefaultConfig()
	other.MinObjectVelocity = 40 // nothing would ever count as moving
	other.MinORGLength = 100     // nor survive decomposition
	db := core.OpenShared(cfg)
	svc, err := Open(Options{Dir: t.TempDir(), DB: db, STRG: &other, MinEpochFrames: 12, MaxEpochFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	f, err := svc.Open("cam", meta)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int
	for i := 0; i < len(frames); i += 7 {
		res, err := f.Append(frames[i:min(i+7, len(frames))])
		if err != nil {
			t.Fatal(err)
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
	if db.Stats().OGs == 0 {
		t.Fatal("feed committed no OGs: it tracked under Options.STRG")
	}
	if !bytes.Equal(snapshotBytes(t, db), snapshotBytes(t, oneShot(t, cfg, frames, meta, bounds))) {
		t.Error("feed output differs from one-shot ingest under the database's configuration")
	}
}

// The checkpoint shape journals carried while a feed kept one tracker
// across epochs: the metaRec of that time plus the tracker state it
// serialized. Gob matches fields by name, so these copies write the same
// records.
type (
	parentJournalRec struct {
		Kind   int8
		Meta   *parentMetaRec
		Frames []video.Frame
		Epoch  int
	}
	parentMetaRec struct {
		ID        string
		Meta      Meta
		Epoch     int
		NextFrame int
		Builder   *parentBuilder
	}
	parentBuilder struct {
		Frame, BaseID, NextOG int
		LastFrame             *video.Frame
		VelIn                 []struct {
			Node   int
			DX, DY float64
		}
		Open, Closed []parentChain
	}
	parentChain struct {
		Tail      int
		Frames    []int
		Centroids []geom.Point
		Sizes     []float64
		Labels    []struct {
			Label string
			Count int
		}
		Attrs []strg.TemporalAttr
	}
)

func encodeParent(t *testing.T, rec parentJournalRec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFeedLegacyCheckpointRecovers: a journal written when checkpoints
// carried the tracker's state — a checkpoint at epoch 1, two frames
// batches, the intent to commit epoch 1, then a batch of epoch 2 —
// recovers: the frames replay, epoch 1 is committed exactly once whether
// or not the crash preceded the commit, and the result equals one-shot
// ingest.
func TestFeedLegacyCheckpointRecovers(t *testing.T) {
	frames, meta := feedFrames(t, 6, 29)
	const (
		first = 14 // frames of epoch 0, committed before the checkpoint
		split = 40 // epoch 1 is frames [first, split)
		end   = 47
	)
	lf := frames[first-1]
	checkpoint := encodeParent(t, parentJournalRec{Kind: recMeta, Meta: &parentMetaRec{
		ID: "cam", Meta: meta, Epoch: 1, NextFrame: first,
		Builder: &parentBuilder{
			Frame: first, BaseID: 200, NextOG: 3, LastFrame: &lf,
			Open: []parentChain{{Tail: 199, Frames: []int{12, 13}, Centroids: []geom.Point{geom.Pt(1, 2), geom.Pt(3, 4)},
				Sizes: []float64{10, 11}, Attrs: []strg.TemporalAttr{{Velocity: 2.8, Direction: 0.7}}}},
		},
	}})
	records := [][]byte{
		encodeParent(t, parentJournalRec{Kind: recFrames, Frames: frames[first:30]}),
		encodeParent(t, parentJournalRec{Kind: recFrames, Frames: frames[30:split]}),
		encodeParent(t, parentJournalRec{Kind: recIntent, Epoch: 1}),
		encodeParent(t, parentJournalRec{Kind: recFrames, Frames: frames[split:end]}),
	}
	cfg := core.DefaultConfig()
	want := snapshotBytes(t, oneShot(t, cfg, frames, meta, []int{first, split}))

	for _, landed := range []bool{false, true} {
		t.Run(fmt.Sprintf("commit_landed=%v", landed), func(t *testing.T) {
			dir := t.TempDir()
			journal := wal.NewChain(faultfs.OS{}, filepath.Join(dir, "cam"), journalPrefix)
			if err := os.MkdirAll(filepath.Join(dir, "cam"), 0o755); err != nil {
				t.Fatal(err)
			}
			if _, err := journal.Rotate(checkpoint); err != nil {
				t.Fatal(err)
			}
			for _, r := range records {
				if err := journal.Log().Append(r); err != nil {
					t.Fatal(err)
				}
			}
			journal.Log().Close()

			// The database already holds epoch 0, and epoch 1 too if the
			// crash came after the commit.
			bounds := []int{first}
			if landed {
				bounds = append(bounds, split)
			}
			db := oneShot(t, cfg, frames, meta, bounds)
			for restart := 0; restart < 2; restart++ {
				svc, err := Open(Options{Dir: dir, DB: db})
				if err != nil {
					t.Fatalf("restart %d: %v", restart, err)
				}
				f, ok := svc.Feed("cam")
				if !ok {
					t.Fatalf("restart %d: feed not recovered", restart)
				}
				if st := f.State(); st.Epoch != 2 || st.NextFrame != end || st.Pending != end-split {
					t.Fatalf("restart %d: state %+v, want epoch 2, next_frame %d, %d pending", restart, st, end, end-split)
				}
				if got := db.SegmentsIn("cam"); got != 2 {
					t.Fatalf("restart %d: %d segments committed, want 2", restart, got)
				}
				if err := svc.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(snapshotBytes(t, db), want) {
				t.Error("recovered database differs from one-shot ingest of the same epochs")
			}
		})
	}
}
