// End-to-end replication tests: a real primary served over HTTP, real
// replicas bootstrapping and tailing it, and fault injection at both the
// transport (tampering proxies) and the local disk (faultfs budgets).
// External test package: the fixtures wrap internal/server, which itself
// imports internal/replica.
package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/faultfs"
	"strgindex/internal/index"
	"strgindex/internal/obs"
	"strgindex/internal/query"
	"strgindex/internal/replica"
	"strgindex/internal/server"
	"strgindex/internal/video"
	"strgindex/internal/wal"
)

func discardLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// miniStream generates a small lab-style stream (NumObjects/2 segments).
func miniStream(t *testing.T, n int, seed int64) *video.Stream {
	t.Helper()
	p := video.StreamProfile{
		Name: "Mini", Kind: video.KindLab,
		NumObjects: n, SegmentFrames: 16, ObjectsPerSegment: 2,
	}
	s, err := video.GenerateStream(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var sigTrajs = []dist.Sequence{
	{{20, 120}, {100, 120}, {180, 120}, {280, 120}},
	{{160, 20}, {160, 120}, {160, 220}},
	{{40, 40}, {120, 100}, {240, 200}},
}

// querier is the database's one query entry point, as VideoDB and
// SharedDB share it.
type querier interface {
	QueryComposedCtx(ctx context.Context, q *query.Query) (*core.QueryResult, error)
}

// search runs one pure-similarity query. It returns the error instead of
// failing the test so reader goroutines can use it.
func search(db querier, c query.SimilarClause) ([]core.Match, index.SearchStats, error) {
	res, err := db.QueryComposedCtx(context.Background(), &query.Query{Similar: &c})
	if err != nil {
		return nil, index.SearchStats{}, err
	}
	return res.Matches, res.Search, nil
}

// sigClauses are the signature queries run per trajectory: exact k-NN,
// Algorithm 3 k-NN, and (stats only) a range.
func sigClauses(traj dist.Sequence) []query.SimilarClause {
	return []query.SimilarClause{
		{Trajectory: traj, K: 5, Exact: true},
		{Trajectory: traj, K: 5},
		{Trajectory: traj, Radius: 150},
	}
}

// querySig fingerprints k-NN behaviour: exact bit patterns of distances
// and matched OG identities — with statsSig's SearchStats accounting, the
// byte-identity contract a replica must honour at a matched version.
func querySig(t *testing.T, db querier) string {
	t.Helper()
	var sb strings.Builder
	for _, traj := range sigTrajs {
		for _, c := range sigClauses(traj)[:2] {
			ms, _, err := search(db, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				fmt.Fprintf(&sb, "%d:%x;", m.Record.OGID, m.Distance)
			}
			sb.WriteByte('|')
		}
	}
	return sb.String()
}

// statsSig captures the SearchStats of every signature query — the "AND
// SearchStats" half of the byte-identity claim.
func statsSig(t *testing.T, db querier) string {
	t.Helper()
	var sb strings.Builder
	for _, traj := range sigTrajs {
		for _, c := range sigClauses(traj) {
			_, st, err := search(db, c)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%+v|", st)
		}
	}
	return sb.String()
}

// refSigs ingests the stream prefix by prefix into a plain database and
// records the signature after each — the ground truth every recovered or
// replicated state is compared against.
func refSigs(t *testing.T, cfg core.Config, segs []*video.Segment) []string {
	t.Helper()
	sigs := make([]string, len(segs)+1)
	db := core.Open(cfg)
	sigs[0] = querySig(t, db)
	for k, seg := range segs {
		if _, err := db.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
		sigs[k+1] = querySig(t, db)
	}
	return sigs
}

type primaryFixture struct {
	dir  string
	db   *core.SharedDB
	prim *replica.Primary
	ts   *httptest.Server
}

func (p *primaryFixture) close() {
	p.ts.Close()
	p.prim.Close()
	_ = p.db.Close()
}

func (p *primaryFixture) ingest(t *testing.T, segs []*video.Segment) {
	t.Helper()
	for _, seg := range segs {
		if _, err := p.db.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
}

// startPrimary recovers (or creates) a durable primary in dir and serves
// it with the replication endpoints mounted. Automatic snapshots are off:
// tests drive rotation explicitly with Checkpoint.
func startPrimary(t *testing.T, dir string) *primaryFixture {
	t.Helper()
	return startPrimaryCfg(t, dir, core.DefaultConfig())
}

// startPrimaryCfg is startPrimary over an explicit database configuration.
func startPrimaryCfg(t *testing.T, dir string, cfg core.Config) *primaryFixture {
	t.Helper()
	db, _, err := core.OpenDurable(cfg, core.Durability{Dir: dir, SnapshotOps: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	prim, err := replica.NewPrimary(db, replica.PrimaryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewShared(db, server.Options{Replication: prim, Logger: discardLog()}))
	p := &primaryFixture{dir: dir, db: db, prim: prim, ts: ts}
	t.Cleanup(p.close)
	return p
}

// openReplicaAt opens a replica with test-speed timings in a fixed local
// directory (so tests can close and reopen it).
func openReplicaAt(t *testing.T, primaryURL, dir string, mod func(*replica.Config)) *replica.Replica {
	t.Helper()
	rc := replica.Config{
		Primary:             primaryURL,
		ID:                  "r1",
		Dir:                 dir,
		DB:                  core.DefaultConfig(),
		PollInterval:        2 * time.Millisecond,
		BackoffMin:          2 * time.Millisecond,
		BackoffMax:          50 * time.Millisecond,
		AntiEntropyInterval: -1,
		Logger:              discardLog(),
	}
	if mod != nil {
		mod(&rc)
	}
	rep, err := replica.Open(context.Background(), rc)
	if err != nil {
		t.Fatalf("replica open: %v", err)
	}
	return rep
}

// runReplica starts the connection loop; the returned stop cancels it
// and reports how it ended.
func runReplica(rep *replica.Replica) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()
	return func() error {
		cancel()
		return <-done
	}
}

// waitCaughtUp polls until the replica's applied position equals the
// primary's committed WAL end and the initial sync has completed.
func waitCaughtUp(t *testing.T, rep *replica.Replica, primary *core.SharedDB) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		end, err := primary.WALPos()
		if err != nil {
			t.Fatal(err)
		}
		if st := rep.Status(); st.Synced && st.Applied == end {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica never caught up: status %+v", rep.Status())
}

// expectIdentical asserts the full byte-identity contract between a
// caught-up replica and its primary: k-NN answers, SearchStats, database
// stats, and the anti-entropy digests (index and corpus hashes) at the
// matched position.
func expectIdentical(t *testing.T, rep *replica.Replica, primary *core.SharedDB) {
	t.Helper()
	if got, want := querySig(t, rep.DB()), querySig(t, primary); got != want {
		t.Errorf("replica answers differ from primary at matched version")
	}
	if got, want := statsSig(t, rep.DB()), statsSig(t, primary); got != want {
		t.Errorf("replica SearchStats differ from primary:\n got %s\nwant %s", got, want)
	}
	if got, want := rep.DB().Stats(), primary.Stats(); got != want {
		t.Errorf("replica Stats = %+v, want %+v", got, want)
	}
	pd, err := primary.ReplicationDigest()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := rep.DB().ReplicationDigest()
	if err != nil {
		t.Fatal(err)
	}
	if pd.Pos != rd.Pos {
		t.Fatalf("digest positions differ: primary %v, replica %v", pd.Pos, rd.Pos)
	}
	if pd.Corpus != rd.Corpus {
		t.Errorf("corpus digests differ at %v", pd.Pos)
	}
	if pd.Index == "" || pd.Index != rd.Index {
		t.Errorf("index digests differ at %v: primary %q, replica %q", pd.Pos, pd.Index, rd.Index)
	}
}

// TestReplicaByteIdentity is the headline property: a replica that
// bootstrapped from a snapshot mid-stream and tailed the WAL answers
// byte-identically to the primary. Each case sets the deprecated
// index.Config.Shards knob that older callers still pass; it is ignored,
// so every value must serve the same one index tree.
func TestReplicaByteIdentity(t *testing.T) {
	var firstIndex string
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Index.Shards = shards
			stream := miniStream(t, 8, 81)
			p := startPrimaryCfg(t, t.TempDir(), cfg)
			half := len(stream.Segments) / 2
			p.ingest(t, stream.Segments[:half])

			rep := openReplicaAt(t, p.ts.URL, t.TempDir(), func(rc *replica.Config) { rc.DB = cfg })
			defer rep.Close()
			stop := runReplica(rep)
			defer stop()

			p.ingest(t, stream.Segments[half:])
			waitCaughtUp(t, rep, p.db)
			expectIdentical(t, rep, p.db)
			if got := rep.DB().AppliedSegments(); got != len(stream.Segments) {
				t.Errorf("AppliedSegments = %d, want %d", got, len(stream.Segments))
			}
			d, err := p.db.ReplicationDigest()
			if err != nil {
				t.Fatal(err)
			}
			if firstIndex == "" {
				firstIndex = d.Index
			} else if d.Index != firstIndex {
				t.Errorf("index digest %q under Shards=%d, want %q as under Shards=1", d.Index, shards, firstIndex)
			}
		})
	}
}

// tamperProxy forwards requests to upstream, letting the test rewrite
// response bodies per path — transport-level fault injection.
func tamperProxy(t *testing.T, upstream func() string, tamper func(path string, body []byte) []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, upstream()+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if tamper != nil {
			body = tamper(r.URL.Path, body)
		}
		for k, vs := range resp.Header {
			if k == "Content-Length" {
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestReplicaCorruptBatchRefusedAndRefetched flips a byte inside the
// first WAL batch on the wire: the replica must refuse it (Merkle/CRC),
// re-fetch, and still converge byte-identically.
func TestReplicaCorruptBatchRefusedAndRefetched(t *testing.T) {
	stream := miniStream(t, 6, 83)
	p := startPrimary(t, t.TempDir())
	p.ingest(t, stream.Segments)

	var walFetches, tampered atomic.Int32
	proxy := tamperProxy(t, func() string { return p.ts.URL }, func(path string, body []byte) []byte {
		if path != "/v1/replication/wal" {
			return body
		}
		if walFetches.Add(1) == 1 && len(body) > 100 {
			tampered.Add(1)
			body = append([]byte(nil), body...)
			body[len(body)/2] ^= 0x20
		}
		return body
	})

	rep := openReplicaAt(t, proxy.URL, t.TempDir(), nil)
	defer rep.Close()
	stop := runReplica(rep)
	defer stop()
	waitCaughtUp(t, rep, p.db)

	if tampered.Load() != 1 {
		t.Fatalf("tampered %d batches, want 1", tampered.Load())
	}
	if walFetches.Load() < 2 {
		t.Errorf("refused batch was not re-fetched (%d fetches)", walFetches.Load())
	}
	expectIdentical(t, rep, p.db)
}

// TestReplicaTornBatchRefusedAndRefetched truncates the first WAL batch
// mid-body — the dropped-connection shape — and expects the same refuse
// and re-fetch behaviour.
func TestReplicaTornBatchRefusedAndRefetched(t *testing.T) {
	stream := miniStream(t, 6, 85)
	p := startPrimary(t, t.TempDir())
	p.ingest(t, stream.Segments)

	var walFetches atomic.Int32
	proxy := tamperProxy(t, func() string { return p.ts.URL }, func(path string, body []byte) []byte {
		if path == "/v1/replication/wal" && walFetches.Add(1) == 1 && len(body) > 40 {
			return body[:len(body)-25]
		}
		return body
	})

	rep := openReplicaAt(t, proxy.URL, t.TempDir(), nil)
	defer rep.Close()
	stop := runReplica(rep)
	defer stop()
	waitCaughtUp(t, rep, p.db)

	if walFetches.Load() < 2 {
		t.Errorf("torn batch was not re-fetched (%d fetches)", walFetches.Load())
	}
	expectIdentical(t, rep, p.db)
}

// TestReplicaCrashApplyMatrix is the replica-side durability matrix: for
// every interesting local-WAL prefix, a disk that dies at that point
// during replicated apply recovers to exactly the acknowledged ops —
// byte-identical answers, the right resume position, replayed records
// refused, and a clean resume to the full state with no gaps or
// duplicates.
func TestReplicaCrashApplyMatrix(t *testing.T) {
	cfg := core.DefaultConfig()
	stream := miniStream(t, 6, 87)
	n := len(stream.Segments)
	sigs := refSigs(t, cfg, stream.Segments)

	// Primary with every segment; its WAL frames are the replication feed.
	pdb, _, err := core.OpenDurable(cfg, core.Durability{Dir: t.TempDir(), SnapshotOps: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	for _, seg := range stream.Segments {
		if _, err := pdb.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	start := core.WALPos{Seq: 1, Off: wal.HeaderSize}
	frames, next, end, err := pdb.WALFrames(start, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != n || next != end {
		t.Fatalf("WALFrames returned %d frames to %v (end %v), want %d", len(frames), next, end, n)
	}

	// A bootstrap snapshot of an empty primary positions replicas at the
	// start of the feed.
	var snap bytes.Buffer
	edb, _, err := core.OpenDurable(cfg, core.Durability{Dir: t.TempDir(), SnapshotOps: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	bootPos, err := edb.ReplicationSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	_ = edb.Close()
	if bootPos != start {
		t.Fatalf("empty-primary snapshot position = %v, want %v", bootPos, start)
	}
	seedDir := func() string {
		dir := t.TempDir()
		if err := os.WriteFile(core.SnapshotPath(dir), snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	// Clean baseline: the local-WAL size after each applied record.
	boundaries := make([]int64, n+1)
	{
		rdb, rec, err := core.OpenReplica(cfg, core.Durability{Dir: seedDir(), SnapshotOps: -1, SnapshotBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.SnapshotLoaded {
			t.Fatal("bootstrap snapshot not loaded")
		}
		boundaries[0] = rdb.WALSize()
		for k, f := range frames {
			if err := rdb.ApplyReplicated(f.Payload, f.Next); err != nil {
				t.Fatal(err)
			}
			boundaries[k+1] = rdb.WALSize()
		}
		if rdb.ReplicaPos() != end {
			t.Fatalf("baseline replica at %v, want %v", rdb.ReplicaPos(), end)
		}
		if sig := querySig(t, rdb); sig != sigs[n] {
			t.Fatal("baseline replicated apply diverges from direct ingest")
		}
		_ = rdb.Close()
	}

	for _, cut := range faultfs.CrashPoints(boundaries) {
		acked := 0
		for acked < n && boundaries[acked+1] <= cut {
			acked++
		}

		dir := seedDir()
		fsys := faultfs.NewInject(faultfs.OS{}, faultfs.Config{WriteBudget: cut, FailSyncAfter: -1})
		rdb, _, err := core.OpenReplica(cfg, core.Durability{Dir: dir, FS: fsys, SnapshotOps: -1, SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		applied := 0
		var applyErr error
		for _, f := range frames {
			if err := rdb.ApplyReplicated(f.Payload, f.Next); err != nil {
				applyErr = err
				break
			}
			applied++
		}
		_ = rdb.Close() // the process "dies"
		if applied != acked {
			t.Fatalf("cut %d: %d ops acknowledged, want %d", cut, applied, acked)
		}
		if applied < n && !errors.Is(applyErr, faultfs.ErrInjected) {
			t.Fatalf("cut %d: apply failed with %v, want injected fault", cut, applyErr)
		}

		// A fresh process recovers from the real on-disk residue.
		r2, _, err := core.OpenReplica(cfg, core.Durability{Dir: dir, SnapshotOps: -1, SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
		}
		wantPos := bootPos
		if acked > 0 {
			wantPos = frames[acked-1].Next
		}
		if got := r2.ReplicaPos(); got != wantPos {
			t.Errorf("cut %d: recovered position %v, want %v", cut, got, wantPos)
		}
		if sig := querySig(t, r2); sig != sigs[acked] {
			t.Errorf("cut %d: recovered answers differ from the %d-op reference", cut, acked)
		}
		// No duplicates: re-offering the already-applied record is refused.
		if acked > 0 {
			if err := r2.ApplyReplicated(frames[acked-1].Payload, frames[acked-1].Next); err == nil {
				t.Errorf("cut %d: replaying an applied record was not refused", cut)
			}
		}
		// No gaps: resuming from the recovered position reaches the full
		// state.
		for _, f := range frames[acked:] {
			if err := r2.ApplyReplicated(f.Payload, f.Next); err != nil {
				t.Fatalf("cut %d: resume apply: %v", cut, err)
			}
		}
		if r2.ReplicaPos() != end {
			t.Errorf("cut %d: resumed to %v, want %v", cut, r2.ReplicaPos(), end)
		}
		if sig := querySig(t, r2); sig != sigs[n] {
			t.Errorf("cut %d: resumed answers differ from the full reference", cut)
		}
		_ = r2.Close()
	}
}

// TestReplicaResumePrimaryRestart kills the primary mid-stream and
// restarts it on the same data directory: the replica keeps serving (and
// stays healthy) while the primary is dead, then resumes exactly where
// it stopped — no gaps, no duplicates.
func TestReplicaResumePrimaryRestart(t *testing.T) {
	stream := miniStream(t, 8, 93)
	n := len(stream.Segments)
	sigs := refSigs(t, core.DefaultConfig(), stream.Segments)
	pdir := t.TempDir()

	p1 := startPrimary(t, pdir)
	half := n / 2
	p1.ingest(t, stream.Segments[:half])

	var target atomic.Value
	target.Store(p1.ts.URL)
	proxy := tamperProxy(t, func() string { return target.Load().(string) }, nil)

	rep := openReplicaAt(t, proxy.URL, t.TempDir(), nil)
	defer rep.Close()
	stop := runReplica(rep)
	defer stop()
	waitCaughtUp(t, rep, p1.db)

	// Primary dies. The replica keeps answering at its last verified
	// version and does not flip unhealthy — a dead primary is degraded
	// freshness, not a broken replica.
	p1.close()
	time.Sleep(20 * time.Millisecond) // let a few fetches fail
	if err := rep.Healthy(); err != nil {
		t.Errorf("dead primary flipped replica health: %v", err)
	}
	if sig := querySig(t, rep.DB()); sig != sigs[half] {
		t.Error("replica answers changed while the primary was down")
	}

	// Primary restarts on the same directory and keeps ingesting.
	p2 := startPrimary(t, pdir)
	p2.ingest(t, stream.Segments[half:])
	target.Store(p2.ts.URL)

	waitCaughtUp(t, rep, p2.db)
	if got := rep.DB().AppliedSegments(); got != n {
		t.Errorf("AppliedSegments = %d after resume, want %d (gap or duplicate)", got, n)
	}
	if sig := querySig(t, rep.DB()); sig != sigs[n] {
		t.Error("post-restart catch-up diverges from reference")
	}
	expectIdentical(t, rep, p2.db)
}

// TestReplicaWALGoneRebootstraps rotates the replica's resume position
// off the primary's retained WAL (registry lost to a primary restart):
// the fetch answers 410, Run demands a re-bootstrap, and the restarted
// replica repairs itself by wiping and bootstrapping fresh.
func TestReplicaWALGoneRebootstraps(t *testing.T) {
	stream := miniStream(t, 8, 95)
	n := len(stream.Segments)
	pdir, rdir := t.TempDir(), t.TempDir()

	p1 := startPrimary(t, pdir)
	p1.ingest(t, stream.Segments[:n/2])

	var target atomic.Value
	target.Store(p1.ts.URL)
	proxy := tamperProxy(t, func() string { return target.Load().(string) }, nil)

	rep := openReplicaAt(t, proxy.URL, rdir, nil)
	stop := runReplica(rep)
	waitCaughtUp(t, rep, p1.db)
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("stop: %v", err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	p1.close()

	// The restarted primary has an empty registry; a checkpoint rotates
	// the old logs away.
	p2 := startPrimary(t, pdir)
	p2.ingest(t, stream.Segments[n/2:])
	if err := p2.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(pdir, "wal-00000001.log")); !os.IsNotExist(err) {
		t.Fatalf("rotation kept wal-1: %v", err)
	}
	target.Store(p2.ts.URL)

	// The old replica state resumes from a position the primary no longer
	// serves: Run must refuse to continue and demand a re-bootstrap.
	rep2 := openReplicaAt(t, proxy.URL, rdir, nil)
	errc := make(chan error, 1)
	go func() { errc <- rep2.Run(context.Background()) }()
	select {
	case err := <-errc:
		if !errors.Is(err, replica.ErrResyncNeeded) {
			t.Fatalf("Run = %v, want ErrResyncNeeded", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not detect the lost WAL position")
	}
	if !rep2.Status().Diverged {
		t.Error("replica does not report divergence")
	}
	if err := rep2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(rdir, "RESYNC")); err != nil {
		t.Fatalf("resync marker not persisted: %v", err)
	}

	// Restart repairs: wipe, bootstrap, converge.
	rep3 := openReplicaAt(t, proxy.URL, rdir, nil)
	defer rep3.Close()
	stop3 := runReplica(rep3)
	defer stop3()
	waitCaughtUp(t, rep3, p2.db)
	expectIdentical(t, rep3, p2.db)
}

// TestReplicaAntiEntropyDivergence plants silently divergent state (the
// same segments applied in a different order, ending at the same WAL
// position) and expects the digest comparison to catch it and force a
// re-bootstrap that repairs the replica.
func TestReplicaAntiEntropyDivergence(t *testing.T) {
	cfg := core.DefaultConfig()
	stream := miniStream(t, 6, 97)
	p := startPrimary(t, t.TempDir())
	p.ingest(t, stream.Segments)
	realEnd, err := p.db.WALPos()
	if err != nil {
		t.Fatal(err)
	}

	// An "evil twin" primary ingests the first two segments swapped; its
	// WAL reaches the same end position with different contents.
	edb, _, err := core.OpenDurable(cfg, core.Durability{Dir: t.TempDir(), SnapshotOps: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer edb.Close()
	swapped := append([]*video.Segment{stream.Segments[1], stream.Segments[0]}, stream.Segments[2:]...)
	for _, seg := range swapped {
		if _, err := edb.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	start := core.WALPos{Seq: 1, Off: wal.HeaderSize}
	evilFrames, _, evilEnd, err := edb.WALFrames(start, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if evilEnd != realEnd {
		t.Fatalf("evil twin ends at %v, real primary at %v — cannot plant matched-position divergence", evilEnd, realEnd)
	}

	// Seed a replica directory with the evil state via the normal apply
	// path: empty-primary snapshot, then the evil frames.
	var snap bytes.Buffer
	bdb, _, err := core.OpenDurable(cfg, core.Durability{Dir: t.TempDir(), SnapshotOps: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bdb.ReplicationSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	_ = bdb.Close()
	rdir := t.TempDir()
	if err := os.WriteFile(core.SnapshotPath(rdir), snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rdb, _, err := core.OpenReplica(cfg, core.Durability{Dir: rdir, SnapshotOps: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range evilFrames {
		if err := rdb.ApplyReplicated(f.Payload, f.Next); err != nil {
			t.Fatal(err)
		}
	}
	_ = rdb.Close()

	// Tail the REAL primary from the divergent state: the position
	// matches, so fetches return empty batches and anti-entropy runs.
	rep := openReplicaAt(t, p.ts.URL, rdir, func(c *replica.Config) {
		c.AntiEntropyInterval = time.Millisecond
	})
	errc := make(chan error, 1)
	go func() { errc <- rep.Run(context.Background()) }()
	select {
	case err := <-errc:
		if !errors.Is(err, replica.ErrResyncNeeded) {
			t.Fatalf("Run = %v, want ErrResyncNeeded", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("anti-entropy never detected the divergence")
	}
	if !rep.Status().Diverged {
		t.Error("replica does not report divergence")
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart repairs via re-bootstrap.
	rep2 := openReplicaAt(t, p.ts.URL, rdir, nil)
	defer rep2.Close()
	stop := runReplica(rep2)
	defer stop()
	waitCaughtUp(t, rep2, p.db)
	expectIdentical(t, rep2, p.db)
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestReplicaRefusesOldDigestFormat serves the replica a digest in an
// older binary's format (per-shard hashes, no index hash) at its own
// position: anti-entropy must refuse it with ErrDigestFormat and keep
// replicating, not count a repair, mark RESYNC or report divergence.
func TestReplicaRefusesOldDigestFormat(t *testing.T) {
	stream := miniStream(t, 6, 89)
	p := startPrimary(t, t.TempDir())
	p.ingest(t, stream.Segments[:2])

	var served atomic.Int32
	proxy := tamperProxy(t, func() string { return p.ts.URL }, func(path string, body []byte) []byte {
		if path != "/v1/replication/digest" {
			return body
		}
		var d map[string]any
		if err := json.Unmarshal(body, &d); err != nil {
			t.Errorf("digest body: %v", err)
			return body
		}
		d["shards"] = []string{d["index"].(string)}
		delete(d, "index")
		out, _ := json.Marshal(d)
		served.Add(1)
		return out
	})
	repairs := obs.Default.Counter("strg_repl_anti_entropy_repairs_total", "", nil)
	before := repairs.Value()
	var logs syncBuffer
	rdir := t.TempDir()
	rep := openReplicaAt(t, proxy.URL, rdir, func(c *replica.Config) {
		c.AntiEntropyInterval = time.Millisecond
		c.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	})
	defer rep.Close()
	stop := runReplica(rep)
	waitCaughtUp(t, rep, p.db)
	deadline := time.Now().Add(20 * time.Second)
	for served.Load() < 3 || !strings.Contains(logs.String(), replica.ErrDigestFormat.Error()) {
		if time.Now().After(deadline) {
			t.Fatalf("replica never refused the old digest (served %d): %s", served.Load(), logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Replication goes on past the refusal.
	p.ingest(t, stream.Segments[2:])
	waitCaughtUp(t, rep, p.db)
	if err := stop(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if got := repairs.Value(); got != before {
		t.Errorf("anti-entropy repairs moved %d -> %d on an old-format digest", before, got)
	}
	if rep.Status().Diverged {
		t.Error("replica reports divergence on an old-format digest")
	}
	if _, err := os.Stat(filepath.Join(rdir, "RESYNC")); !os.IsNotExist(err) {
		t.Errorf("RESYNC marker after an old-format digest: stat err %v", err)
	}
	expectIdentical(t, rep, p.db)
}

// TestPrimaryRetentionFloorPinsWAL proves registration pins the log
// chain before the bootstrap fetch: rotation keeps every log a
// registered-but-unacked replica still needs, and releases them once the
// replica acks past.
func TestPrimaryRetentionFloorPinsWAL(t *testing.T) {
	stream := miniStream(t, 6, 99)
	p := startPrimary(t, t.TempDir())
	p.ingest(t, stream.Segments[:1])

	if err := p.prim.Register("pinner"); err != nil {
		t.Fatal(err)
	}
	p.ingest(t, stream.Segments[1:2])
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wal1 := filepath.Join(p.dir, "wal-00000001.log")
	if _, err := os.Stat(wal1); err != nil {
		t.Fatalf("rotation deleted a log pinned by an unacked replica: %v", err)
	}

	// Acking to the end releases the floor; the next rotation reclaims it.
	end, err := p.db.WALPos()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.prim.Ack("pinner", end); err != nil {
		t.Fatal(err)
	}
	p.ingest(t, stream.Segments[2:3])
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(wal1); !os.IsNotExist(err) {
		t.Fatalf("acked log not reclaimed by rotation: %v", err)
	}

	// The registry reports over HTTP.
	var st replica.PrimaryStatus
	resp, err := http.Get(p.ts.URL + "/v1/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" || len(st.Replicas) != 1 || st.Replicas[0].ID != "pinner" {
		t.Errorf("primary status = %+v", st)
	}
}

// TestReplicaLagFlipsReadyz drives the graceful-degradation contract
// over HTTP: a replica past its lag bound answers 503 on /readyz (with
// the JSON envelope) while still serving queries, ingest is refused with
// 403 read_only_replica, and catching back up restores 200.
func TestReplicaLagFlipsReadyz(t *testing.T) {
	stream := miniStream(t, 8, 101)
	p := startPrimary(t, t.TempDir())
	p.ingest(t, stream.Segments[:2])

	// Gate WAL fetches: -1 unlimited, 0 blocked, n>0 allows n fetches.
	// refused counts the fetches turned away at the closed gate.
	var walAllow, refused atomic.Int64
	walAllow.Store(-1)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replication/wal" {
			for {
				v := walAllow.Load()
				if v < 0 {
					break
				}
				if v == 0 {
					refused.Add(1)
					http.Error(w, "gated", http.StatusServiceUnavailable)
					return
				}
				if walAllow.CompareAndSwap(v, v-1) {
					break
				}
			}
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, p.ts.URL+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	rep := openReplicaAt(t, proxy.URL, t.TempDir(), func(c *replica.Config) {
		c.LagMax = 1
		c.BatchBytes = 1 // one frame per batch, so lag is observable
	})
	defer rep.Close()
	rts := httptest.NewServer(server.NewShared(rep.DB(), server.Options{Replica: rep, Logger: discardLog()}))
	defer rts.Close()

	readyzStatus := func() (int, string) {
		resp, err := http.Get(rts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Error.Code
	}

	// Before the first catch-up the replica is not ready.
	if code, ec := readyzStatus(); code != http.StatusServiceUnavailable || ec != "unavailable" {
		t.Errorf("pre-sync readyz = %d %q, want 503 unavailable", code, ec)
	}

	stop := runReplica(rep)
	defer stop()
	waitCaughtUp(t, rep, p.db)
	waitFor(t, "readyz 200 after catch-up", func() bool {
		code, _ := readyzStatus()
		return code == http.StatusOK
	})

	// Block the stream, grow the primary, allow exactly one more fetch:
	// the replica learns its lag and must drop out of rotation. A fetch
	// already past the gate when it closes would block on the primary's
	// lock behind the ingest and deliver the first new record, leaving the
	// one admitted fetch to deliver the last and report lag 0 — so wait
	// for a refusal first: the replica fetches from a single goroutine, so
	// by then every earlier fetch has returned and been applied.
	walAllow.Store(0)
	waitFor(t, "a fetch refused at the closed gate", func() bool { return refused.Load() > 0 })
	p.ingest(t, stream.Segments[2:])
	walAllow.Store(1)
	waitFor(t, "lag flips health", func() bool { return rep.Healthy() != nil })
	if err := rep.Healthy(); err == nil || !strings.Contains(err.Error(), "lag") {
		t.Errorf("Healthy = %v, want a lag error", err)
	}
	if code, _ := readyzStatus(); code != http.StatusServiceUnavailable {
		t.Errorf("lagging readyz = %d, want 503", code)
	}

	// Still serving queries, still refusing writes.
	if ms, _, err := search(rep.DB(), query.SimilarClause{Trajectory: sigTrajs[0], K: 3}); err != nil || len(ms) == 0 {
		t.Error("lagging replica stopped answering queries")
	}
	body, _ := json.Marshal(map[string]any{"stream": "Mini", "segment": stream.Segments[0]})
	resp, err := http.Post(rts.URL+"/v1/segments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || env.Error.Code != "read_only_replica" {
		t.Errorf("replica ingest = %d %q, want 403 read_only_replica", resp.StatusCode, env.Error.Code)
	}

	// The replica's own status endpoint reports its role and lag.
	var rst replica.Status
	sresp, err := http.Get(rts.URL + "/v1/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&rst); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if rst.Role != "replica" || rst.LagBytes <= 1 {
		t.Errorf("replica status = %+v, want role=replica with visible lag", rst)
	}

	// Unblock: catch up, healthy again, identical again.
	walAllow.Store(-1)
	waitCaughtUp(t, rep, p.db)
	waitFor(t, "readyz 200 after recovery", func() bool {
		code, _ := readyzStatus()
		return code == http.StatusOK
	})
	expectIdentical(t, rep, p.db)
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicaSnapshotDuringApplyStampsAppliedPosition: a rotation
// triggered by the apply itself (SnapshotOps=1 makes every apply one)
// captures a snapshot that already contains the record, so it must be
// stamped with that record's source position. A stale stamp would make
// recovery resume one record back, re-fetch and re-apply it, and
// silently diverge from the primary.
func TestReplicaSnapshotDuringApplyStampsAppliedPosition(t *testing.T) {
	cfg := core.DefaultConfig()
	stream := miniStream(t, 6, 41)
	sigs := refSigs(t, cfg, stream.Segments)

	pdb, _, err := core.OpenDurable(cfg, core.Durability{Dir: t.TempDir(), SnapshotOps: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	for _, seg := range stream.Segments {
		if _, err := pdb.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	frames, _, _, err := pdb.WALFrames(core.WALPos{Seq: 1, Off: wal.HeaderSize}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}

	// Close waits the background snapshot out, so each reopen recovers
	// from a snapshot captured DURING the apply of the latest record.
	dir := t.TempDir()
	for k, f := range frames {
		rdb, _, err := core.OpenReplica(cfg, core.Durability{Dir: dir, SnapshotOps: 1, SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("record %d: open: %v", k, err)
		}
		if err := rdb.ApplyReplicated(f.Payload, f.Next); err != nil {
			t.Fatalf("record %d: apply: %v", k, err)
		}
		_ = rdb.Close()

		r2, _, err := core.OpenReplica(cfg, core.Durability{Dir: dir, SnapshotOps: -1, SnapshotBytes: -1})
		if err != nil {
			t.Fatalf("record %d: recovery: %v", k, err)
		}
		if got := r2.ReplicaPos(); got != f.Next {
			t.Fatalf("record %d: recovered position %v, want %v", k, got, f.Next)
		}
		if got := r2.AppliedSegments(); got != k+1 {
			t.Fatalf("record %d: recovered %d applied segments, want %d", k, got, k+1)
		}
		if sig := querySig(t, r2); sig != sigs[k+1] {
			t.Errorf("record %d: recovered answers differ from the reference", k)
		}
		_ = r2.Close()
	}
}

// TestWALFramesMidRecordOffsetInLiveLog: a fetch offset that lands
// mid-record in the CURRENT log must answer ErrWALGone (the server's
// 410, the replica's cue to re-bootstrap), not a raw corruption error
// the replica would retry forever. The scenario: a primary crash loses
// an unsynced WAL tail and the restarted primary writes different bytes
// past a replica's old offset.
func TestWALFramesMidRecordOffsetInLiveLog(t *testing.T) {
	stream := miniStream(t, 4, 43)
	pdb, _, err := core.OpenDurable(core.DefaultConfig(), core.Durability{Dir: t.TempDir(), SnapshotOps: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	for _, seg := range stream.Segments {
		if _, err := pdb.IngestSegment("Mini", seg); err != nil {
			t.Fatal(err)
		}
	}
	end, err := pdb.WALPos()
	if err != nil {
		t.Fatal(err)
	}
	bad := core.WALPos{Seq: end.Seq, Off: wal.HeaderSize + 3} // inside the live log's first record
	if _, _, _, err := pdb.WALFrames(bad, 1<<20); !errors.Is(err, core.ErrWALGone) {
		t.Fatalf("mid-record live-log offset: err = %v, want ErrWALGone", err)
	}
}

// TestPrimaryExpiresDeadReplicaWithoutTraffic: expiry must run on a
// timer, not only inside Register/Ack/Touch — a permanently dead
// replica sends no further calls, and without the sweep its last acked
// sequence would pin WAL retention (and primary disk) forever.
func TestPrimaryExpiresDeadReplicaWithoutTraffic(t *testing.T) {
	db, _, err := core.OpenDurable(core.DefaultConfig(), core.Durability{Dir: t.TempDir(), SnapshotOps: -1, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	prim, err := replica.NewPrimary(db, replica.PrimaryOptions{ReplicaTTL: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	if err := prim.Register("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := prim.Ack("doomed", core.WALPos{Seq: 1, Off: wal.HeaderSize}); err != nil {
		t.Fatal(err)
	}
	// No further replication calls: only the background sweep can expire it.
	waitFor(t, "dead replica expiry", func() bool { return len(prim.Status().Replicas) == 0 })
}

// TestBootstrapSnapshotFetchCarriesReplicaID: the snapshot GET names the
// replica so the primary refreshes its registration while the
// (potentially TTL-exceeding) download streams — otherwise rotation
// could delete the WAL between the snapshot position and the first ack.
func TestBootstrapSnapshotFetchCarriesReplicaID(t *testing.T) {
	stream := miniStream(t, 4, 47)
	p := startPrimary(t, t.TempDir())
	p.ingest(t, stream.Segments)

	var snapID atomic.Value
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replication/snapshot" {
			snapID.Store(r.URL.Query().Get("replica"))
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, p.ts.URL+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	rep := openReplicaAt(t, proxy.URL, t.TempDir(), nil)
	defer rep.Close()
	if got, ok := snapID.Load().(string); !ok || got != "r1" {
		t.Fatalf("snapshot fetch carried replica id %q, want %q", got, "r1")
	}
}
