package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"strgindex/internal/cluster"
	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/faultfs"
	"strgindex/internal/feed"
	"strgindex/internal/index"
	"strgindex/internal/query"
	"strgindex/internal/server"
	"strgindex/internal/strg"
	"strgindex/internal/video"
	"strgindex/internal/wal"
)

// The traced run: in-process, one goroutine, no sockets. It replays the
// head of the workload's op list once per layer depth — a handler pass
// through server.Server.ServeHTTP, a layer pass calling the packages'
// public functions directly, and for similarity queries an index pass —
// each from identical freshly built state, so caches and index growth
// behave the same in every pass. All calls into internal packages that
// the benchmark times live in this file.

// Ops replayed by the traced run, per workload.
const (
	tracedSimilarityOps = 2000
	tracedPlannedOps    = 1500
	tracedIngestOps     = 96
	tracedFeedOps       = 240
)

// inProcessOptions mirrors the server.Options cmd/strg-server assembles
// from its default flags; the logger formats every request line as the
// real server does and discards it.
func inProcessOptions() server.Options {
	return server.Options{
		Logger:         slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		MaxInFlight:    256,
		QueueTimeout:   time.Second,
		RequestTimeout: 30 * time.Second,
	}
}

// serve runs one request through the handler under a span and returns
// the status and body.
func serve(rec *recorder, h http.Handler, method, path string, body []byte, class string, op int) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	rec.do("server.handle", "", class, op, func() { h.ServeHTTP(w, req) })
	return w.Code, w.Body.Bytes()
}

// p50 is the median of a span set, 0 when the workload never made the
// call.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// finishTrace prints the recorder's own cost, the attribution of the
// headline class's client p50, and writes the spans out. The client p50
// attributed is the uncontended one where the workload measured it (two
// closed-loop query clients saturate two CPUs; their queueing is
// reported as server.contention_us, not hidden in a layer).
func finishTrace(rec *recorder, res *runResult, rc *runCtx, attributedUs float64) error {
	res.layer("trace.span_ns", spanOverheadNs(), "ns")
	clientUs := res.EndToEnd["main_p50_ms"].Value * 1000
	if solo, ok := res.PerLayer["client.solo_p50_ms"]; ok {
		clientUs = solo.Value * 1000
	}
	// Transport is what the client waited outside ServeHTTP; the no-work
	// /healthz round trip is an independent floor for it, and only that
	// floor counts as attributed.
	res.layer("server.transport_us", clientUs-res.PerLayer["server.handle_us"].Value, "us")
	floor := res.PerLayer["server.rtt_floor_us"].Value
	share := ratio(floor+attributedUs, clientUs)
	res.layer("trace.attributed_ratio", share, "ratio")
	if share < 0.85 || share > 1.15 {
		res.note("attribution: layers sum to %.0f%% of the client p50 of the headline class (want within 15%%)", share*100)
	}
	return rec.write(rc.outDir, rc.workload)
}

// traced replays the head of the query op list.
func (w *queryWorkload) traced(ctx context.Context, res *runResult) error {
	n := tracedPlannedOps
	if w.rc.workload == "query_similarity" {
		n = tracedSimilarityOps
	}
	if w.rc.smoke {
		n = 60
	}
	n = min(n, len(w.ops))
	ops := w.ops[:n]
	cfg := serverConfig(true)
	rec := newRecorder()
	fsys := faultfs.OS{}

	// Handler pass.
	f, err := os.Open(w.dbPath)
	if err != nil {
		return err
	}
	srv, err := server.NewFromReaderWith(f, cfg, inProcessOptions())
	f.Close()
	if err != nil {
		return err
	}
	for i := range ops {
		if status, body := serve(rec, srv, http.MethodPost, "/v1/query", ops[i].body, ops[i].class, i); status != http.StatusOK {
			return fmt.Errorf("handler pass op %d: status %d: %s", i, status, truncate(body, 160))
		}
	}

	// Layer pass.
	var db *core.VideoDB
	rec.do("core.snapshot_load", "", "", -1, func() { db, err = core.LoadFile(fsys, w.dbPath, cfg) })
	if err != nil {
		return err
	}
	for i := range ops {
		var q *query.Query
		rec.do("query.parse", "server.handle", ops[i].class, i, func() { q, err = query.Parse(ops[i].body) })
		if err != nil {
			return err
		}
		rec.do("core.query", "server.handle", ops[i].class, i, func() { _, err = db.QueryComposedCtx(ctx, q) })
		if err != nil {
			return err
		}
	}

	// Index pass: the searches core.query delegates to, on their own.
	db2, err := core.LoadFile(fsys, w.dbPath, cfg)
	if err != nil {
		return err
	}
	idx := db2.IndexSharded()
	for i := range ops {
		op := &ops[i]
		if wantStrategy[op.class] != "index" {
			continue
		}
		rec.do("index.search", "core.query", op.class, i, func() {
			switch op.class {
			case classKNN:
				_, _, err = idx.KNNStatsCtx(ctx, nil, op.traj, op.k)
			case classExact:
				_, _, err = idx.KNNExactStatsCtx(ctx, nil, op.traj, op.k)
			case classRange:
				_, _, err = idx.RangeStatsCtx(ctx, nil, op.traj, op.radius)
			}
		})
		if err != nil {
			return err
		}
	}

	// Snapshot cost at this corpus size.
	snap := filepath.Join(w.rc.workDir, "trace-snapshot.db")
	rec.do("core.snapshot_save", "", "", -1, func() { err = db2.SaveFile(fsys, snap) })
	if err != nil {
		return err
	}
	if info, err := os.Stat(snap); err == nil {
		res.layer("core.snapshot_bytes_per_og", float64(info.Size())/float64(len(w.ogs)), "B")
	}
	os.Remove(snap)
	res.layer("core.snapshot_save_ms", p50(rec.durations("core.snapshot_save"))/1000, "ms")
	res.layer("core.snapshot_load_ms", p50(rec.durations("core.snapshot_load"))/1000, "ms")
	res.layer("dist.ns_per_cell", kernelNsPerCell(ops, w.ogs), "ns")

	h := w.headline
	self := p50(rec.selfTimes("server.handle", h...))
	parse := p50(rec.durations("query.parse", h...))
	coreSelf := p50(rec.selfTimes("core.query", h...))
	search := p50(rec.durations("index.search", h...))
	res.layer("server.handle_us", p50(rec.durations("server.handle", h...)), "us")
	res.layer("server.self_us", self, "us")
	res.layer("query.parse_us", parse, "us")
	res.layer("core.query_us", p50(rec.durations("core.query", h...)), "us")
	res.layer("core.self_us", coreSelf, "us")
	res.layer("index.search_us", search, "us")
	return finishTrace(rec, res, w.rc, self+parse+coreSelf+search)
}

// kernelNsPerCell times the public early-abandoning EGED_M kernel with
// an infinite bound over sampled query/record pairs and divides by the
// DP cells the kernel counted.
func kernelNsPerCell(ops []queryOp, ogs []*strg.OG) float64 {
	var qs []dist.Sequence
	for i := range ops {
		if ops[i].traj != nil && len(qs) < 64 {
			qs = append(qs, ops[i].traj)
		}
	}
	if len(qs) == 0 || len(ogs) == 0 {
		return 0
	}
	recs := make([]dist.Sequence, min(256, len(ogs)))
	for i := range recs {
		recs[i] = ogs[i*len(ogs)/len(recs)].Sequence()
	}
	cells0 := dist.DPCells()
	t0 := time.Now()
	for _, q := range qs {
		for _, r := range recs {
			dist.EGEDMZeroUB(q, r, math.Inf(1))
		}
	}
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(dist.DPCells()-cells0))
}

// durableServer assembles what cmd/strg-server assembles for -data-dir
// (and -feeds): a durable database, optionally the feed service, and the
// handler over them.
type durableServer struct {
	db   *core.SharedDB
	svc  *feed.Service
	srv  *server.Server
	dir  string
	cfg  core.Config
	done bool
}

func openDurableServer(dir string, feeds bool) (*durableServer, error) {
	cfg := serverConfig(false)
	os.RemoveAll(dir)
	db, _, err := core.OpenDurable(cfg, core.Durability{Dir: dir})
	if err != nil {
		return nil, err
	}
	d := &durableServer{db: db, dir: dir, cfg: cfg}
	opts := inProcessOptions()
	if feeds {
		if d.svc, err = feed.Open(feed.Options{Dir: filepath.Join(dir, "feeds"), DB: db, STRG: &cfg.STRG}); err != nil {
			db.Close()
			return nil, err
		}
		opts.Feeds = d.svc
	}
	d.srv = server.NewShared(db, opts)
	return d, nil
}

// close settles background work, closes everything and removes the
// directory.
func (d *durableServer) close() {
	if d.done {
		return
	}
	d.done = true
	if d.svc != nil {
		d.svc.Close()
	}
	d.db.QuiesceIndex()
	d.db.Close()
	os.RemoveAll(d.dir)
}

// traced replays the head of the segment list.
func (w *ingestWorkload) traced(ctx context.Context, res *runResult) error {
	n := tracedIngestOps
	if w.rc.smoke {
		n = 16
	}
	n = min(n, len(w.segs))
	ops := w.segs[:n]
	rec := newRecorder()

	// Handler pass.
	h, err := openDurableServer(filepath.Join(w.rc.workDir, "trace-ingest-h"), false)
	if err != nil {
		return err
	}
	defer h.close()
	for i := range ops {
		if status, body := serve(rec, h.srv, http.MethodPost, "/v1/segments", ops[i].body, classIngest, i); status != http.StatusOK {
			return fmt.Errorf("handler pass op %d: status %d: %s", i, status, truncate(body, 160))
		}
	}
	h.close()

	// Layer pass: decode and the whole ingest, as the handler calls them.
	type ingestReq struct {
		Stream  string         `json:"stream"`
		Segment *video.Segment `json:"segment"`
	}
	reqs := make([]ingestReq, len(ops))
	l, err := openDurableServer(filepath.Join(w.rc.workDir, "trace-ingest-l"), false)
	if err != nil {
		return err
	}
	defer l.close()
	for i := range ops {
		rec.do("video.decode", "server.handle", classIngest, i, func() {
			if err = json.Unmarshal(ops[i].body, &reqs[i]); err == nil {
				err = reqs[i].Segment.Validate()
			}
		})
		if err != nil {
			return err
		}
		rec.do("core.ingest", "server.handle", classIngest, i, func() { _, err = l.db.IngestSegment(reqs[i].Stream, reqs[i].Segment) })
		if err != nil {
			return err
		}
	}
	l.close()

	// Stage pass: what one ingest is made of, each stage on its own — the
	// pipeline stages, the index insert into a mirrored scratch index (its
	// deferred split evaluations compete for the CPUs as the real ones
	// do), and a write-ahead append of an op-sized payload.
	cfg := serverConfig(false)
	scratchLog, err := wal.Create(faultfs.OS{}, filepath.Join(w.rc.workDir, "trace-scratch.wal"))
	if err != nil {
		return err
	}
	defer func() {
		scratchLog.Close()
		os.Remove(scratchLog.Path())
	}()
	mirror := index.NewSharded[core.ClipRecord](cfg.Index)
	byStream := map[string][]dist.Sequence{}
	var allocs []float64
	var ms runtime.MemStats
	for i := range ops {
		req := &reqs[i]
		var s *strg.STRG
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		rec.do("strg.build", "core.ingest", classIngest, i, func() { s, err = strg.Build(req.Segment, cfg.STRG) })
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.Mallocs-mallocs))
		var d *strg.Decomposition
		rec.do("strg.decompose", "core.ingest", classIngest, i, func() { d = s.Decompose(cfg.STRG) })
		items := make([]index.Item[core.ClipRecord], len(d.OGs))
		for j, og := range d.OGs {
			items[j] = index.Item[core.ClipRecord]{Seq: og.Sequence(), Payload: core.ClipRecord{Stream: req.Stream, OGID: j}}
			byStream[req.Stream] = append(byStream[req.Stream], items[j].Seq)
		}
		rec.do("index.add", "core.ingest", classIngest, i, func() { err = mirror.AddSegment(d.BG, items) })
		if err != nil {
			return err
		}
		rec.do("wal.append", "core.ingest", classIngest, i, func() { err = scratchLog.Append(ops[i].body) })
		if err != nil {
			return err
		}
	}
	mirror.Quiesce()

	// One split evaluation at the largest leaf the replay could have
	// reached: every OG of the busiest stream (one root per background).
	var biggest []dist.Sequence
	for _, seqs := range byStream {
		if len(seqs) > len(biggest) {
			biggest = seqs
		}
	}
	if len(biggest) > 2 {
		t0 := time.Now()
		if _, err := cluster.SplitEval(biggest, cluster.Config{MaxIter: 50, Distance: dist.EGED}); err != nil {
			return err
		}
		res.layer("cluster.split_eval_ms", msSince(t0), "ms")
		res.layer("cluster.split_eval_members", float64(len(biggest)), "count")
	}

	self := p50(rec.selfTimes("server.handle"))
	decode := p50(rec.durations("video.decode"))
	ingest := p50(rec.durations("core.ingest"))
	res.layer("server.handle_us", p50(rec.durations("server.handle")), "us")
	res.layer("server.self_us", self, "us")
	res.layer("video.decode_us", decode, "us")
	res.layer("core.ingest_us", ingest, "us")
	res.layer("core.ingest_self_us", p50(rec.selfTimes("core.ingest")), "us")
	res.layer("strg.build_us", p50(rec.durations("strg.build")), "us")
	res.layer("strg.decompose_us", p50(rec.durations("strg.decompose")), "us")
	res.layer("strg.allocs_per_segment", p50(allocs), "count")
	res.layer("index.add_us", p50(rec.durations("index.add")), "us")
	res.layer("wal.append_us", p50(rec.durations("wal.append")), "us")
	return finishTrace(rec, res, w.rc, self+decode+ingest)
}

// decodeBatch parses one NDJSON frames body as the handler does.
func decodeBatch(body []byte) (*feed.Meta, []video.Frame, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var meta *feed.Meta
	var frames []video.Frame
	for {
		var line struct {
			Meta *feed.Meta `json:"meta"`
			video.Frame
		}
		if err := dec.Decode(&line); err == io.EOF {
			return meta, frames, nil
		} else if err != nil {
			return nil, nil, err
		}
		if line.Meta != nil {
			meta = line.Meta
			continue
		}
		frames = append(frames, line.Frame)
	}
}

// traced replays the head of the batch list.
func (w *feedWorkload) traced(ctx context.Context, res *runResult) error {
	n := tracedFeedOps
	if w.rc.smoke {
		n = 24
	}
	n = min(n, len(w.batches))
	ops := w.batches[:n]
	rec := newRecorder()
	allSubs := append(append([][]byte(nil), w.subs...), []byte(catchAllSubscription))

	// Handler pass.
	h, err := openDurableServer(filepath.Join(w.rc.workDir, "trace-feed-h"), true)
	if err != nil {
		return err
	}
	defer h.close()
	silent := newRecorder() // registrations are set-up, not replayed ops
	for i, body := range allSubs {
		if status, out := serve(silent, h.srv, http.MethodPost, "/v1/subscriptions", body, "", i); status != http.StatusCreated {
			return fmt.Errorf("handler pass subscription %d: status %d: %s", i, status, truncate(out, 160))
		}
	}
	for i := range ops {
		status, body := serve(rec, h.srv, http.MethodPost, "/v1/feeds/"+ops[i].feed+"/frames", ops[i].body, classFeedBatch, i)
		if status != http.StatusOK {
			return fmt.Errorf("handler pass op %d: status %d: %s", i, status, truncate(body, 160))
		}
		var ack appendAck
		if err := json.Unmarshal(body, &ack); err != nil {
			return err
		}
		if ack.Flushed {
			rec.spans[len(rec.spans)-1].Class = classFeedCommit
		}
	}
	h.close()

	// Layer pass.
	l, err := openDurableServer(filepath.Join(w.rc.workDir, "trace-feed-l"), true)
	if err != nil {
		return err
	}
	defer l.close()
	for i, body := range allSubs {
		q, err := query.Parse(body)
		if err != nil {
			return err
		}
		if _, err := l.svc.Engine().Register(q); err != nil {
			return fmt.Errorf("layer pass subscription %d: %w", i, err)
		}
	}
	scratchLog, err := wal.Create(faultfs.OS{}, filepath.Join(w.rc.workDir, "trace-scratch.wal"))
	if err != nil {
		return err
	}
	defer func() {
		scratchLog.Close()
		os.Remove(scratchLog.Path())
	}()
	var perSubOG []float64
	for i := range ops {
		meta, frames, err := decodeBatch(ops[i].body)
		if err != nil {
			return err
		}
		var f *feed.Feed
		if meta != nil {
			if f, err = l.svc.Open(ops[i].feed, *meta); err != nil {
				return err
			}
		} else {
			f, _ = l.svc.Feed(ops[i].feed)
		}
		rec.do("wal.append", "feed.append", classFeedBatch, i, func() { err = scratchLog.Append(ops[i].body) })
		if err != nil {
			return err
		}
		ogs := l.db.Stats().OGs
		var ack feed.AppendResult
		rec.do("feed.append", "server.handle", classFeedBatch, i, func() { ack, err = f.Append(frames) })
		if err != nil {
			return err
		}
		if !ack.Flushed {
			continue
		}
		rec.spans[len(rec.spans)-1].Class = classFeedCommit
		rec.do("feed.dispatch", "", classFeedCommit, i, func() { l.svc.Engine().Quiesce() })
		if committed := l.db.Stats().OGs - ogs; committed > 0 {
			d := rec.spans[len(rec.spans)-1].dur()
			perSubOG = append(perSubOG, float64(d)/float64(len(allSubs)*committed))
		}
	}

	self := p50(rec.selfTimes("server.handle", classFeedBatch))
	noflush := p50(rec.durations("feed.append", classFeedBatch))
	flush := p50(rec.durations("feed.append", classFeedCommit))
	res.layer("server.handle_us", p50(rec.durations("server.handle", classFeedBatch)), "us")
	res.layer("server.self_us", self, "us")
	res.layer("feed.append_noflush_us", noflush, "us")
	res.layer("feed.append_flush_us", flush, "us")
	// An epoch-committing append is a journal append plus one ordinary
	// ingest of the epoch's frames: the difference is core's share.
	res.layer("core.ingest_us", math.Max(0, flush-noflush), "us")
	res.layer("feed.dispatch_us", p50(rec.durations("feed.dispatch")), "us")
	res.layer("feed.dispatch_ns_per_sub_og", p50(perSubOG), "ns")
	res.layer("wal.append_us", p50(rec.durations("wal.append")), "us")
	return finishTrace(rec, res, w.rc, self+noflush)
}
