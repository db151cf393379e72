package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Op classes of ingest_segments.
const (
	classIngest     = "ingest"
	classReadKNN    = "read_knn"    // pure similarity: served from copy-on-write snapshots, lock-free
	classReadSelect = "read_select" // predicate: takes the database read lock
)

// ingestWarm segments are ingested during set-up, two per profile: every
// stream's root exists and the reader has something to query before the
// first measured op.
const ingestWarm = 8

// ingestWorkload is ingest_segments: writes beside reads on a durable
// server. One closed-loop writer posts generated segments back to back;
// one closed-loop reader alternates unique k-NN and predicate queries
// for as long as the writer runs; then the server is SIGKILLed and must
// come back with every acknowledged segment.
//
// The two reader classes take different paths. A k-NN query is served
// from the index's copy-on-write snapshots and never waits for an
// ingest; it only shares the CPUs with one, and the workload reports its
// median. A predicate query takes the database read lock, which ingest
// holds exclusively for the whole pipeline: it either runs in the gap
// between two ingests or waits one out, about half and half, so its
// median flips between the two modes from run to run and the workload
// reports its p90 — what a query that meets an ingest waits. Both are
// per-layer figures (client.read_knn_p50_ms, client.read_select_p90_ms).
type ingestWorkload struct {
	rc      *runCtx
	segs    []segmentOp
	reads   []queryOp
	dataDir string
	srv     *serverProc

	acked    int // segments acknowledged, warm-up included
	ackedOGs int
}

func (w *ingestWorkload) sizes() (segments, reads int) {
	if w.rc.smoke {
		return 40, 200
	}
	// Ceilings well above what one run completes.
	return ingestWarm + int(40*w.rc.seconds), int(1500 * w.rc.seconds)
}

func (w *ingestWorkload) setup(ctx context.Context) error {
	nSeg, nRead := w.sizes()
	var err error
	if w.segs, err = genSegmentOps(w.rc.seed, nSeg); err != nil {
		return err
	}
	if w.reads, err = genQueryOps(w.rc.seed, nRead, []string{classKNN, classSelectRTree}); err != nil {
		return err
	}
	w.dataDir = filepath.Join(w.rc.workDir, "ingest-data")
	if w.srv, err = w.boot(ctx); err != nil {
		return err
	}
	w.acked, w.ackedOGs = 0, 0
	c := newClient()
	for i := 0; i < ingestWarm; i++ {
		if _, failure := w.ingest(c, i); failure != "" {
			return fmt.Errorf("warm-up ingest %d: %s", i, failure)
		}
	}
	return nil
}

func (w *ingestWorkload) opListHash() string {
	bodies := make([][]byte, 0, len(w.segs)+len(w.reads))
	for i := range w.segs {
		bodies = append(bodies, w.segs[i].body)
	}
	for i := range w.reads {
		bodies = append(bodies, w.reads[i].body)
	}
	return opListHash(bodies...)
}

func (w *ingestWorkload) boot(ctx context.Context) (*serverProc, error) {
	return startServer(ctx, w.rc.serverBin, w.rc.serverLog(), "-data-dir", w.dataDir)
}

func (w *ingestWorkload) teardown() {
	if w.srv != nil {
		w.srv.kill9()
		w.srv = nil
	}
	if w.dataDir != "" {
		os.RemoveAll(w.dataDir)
	}
}

// ingest posts segment i and accounts the acknowledgement. It returns
// the latency in ms and a failure reason ("" on success).
func (w *ingestWorkload) ingest(c *http.Client, i int) (float64, string) {
	t0 := time.Now()
	status, body, err := do(c, http.MethodPost, w.srv.base+"/v1/segments", w.segs[i].body)
	ms := msSince(t0)
	if err != nil {
		return ms, "transport: " + err.Error()
	}
	if status != http.StatusOK {
		return ms, fmt.Sprintf("status %d: %s", status, truncate(body, 160))
	}
	var st struct{ Frames, OGs int }
	if err := json.Unmarshal(body, &st); err != nil {
		return ms, "undecodable acknowledgement: " + err.Error()
	}
	if st.Frames != ingestSegmentFrames {
		return ms, fmt.Sprintf("acknowledged %d frames, sent %d", st.Frames, ingestSegmentFrames)
	}
	w.acked++
	w.ackedOGs += st.OGs
	w.rc.bytes.add(classIngest, len(w.segs[i].body), len(body))
	return ms, ""
}

func (w *ingestWorkload) measure(ctx context.Context, res *runResult) error {
	rc := w.rc
	ph, err := beginPhase(w.srv)
	if err != nil {
		return err
	}

	writes, readsS, env := newSamples(), newSamples(), newEnvelopeStats()
	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(rc.duration())
	var writeWall time.Duration
	wg.Add(1)
	go func() { // client 1: the writer
		defer wg.Done()
		defer close(writerDone)
		c := newClient()
		for i := ingestWarm; i < len(w.segs) && time.Now().Before(deadline); i++ {
			ms, failure := w.ingest(c, i)
			writes.add(classIngest, ms, failure)
		}
		writeWall = time.Since(start)
	}()
	wg.Add(1)
	go func() { // client 2: the reader, for as long as the writer runs
		defer wg.Done()
		c := newClient()
		for i := 0; i < len(w.reads); i++ {
			select {
			case <-writerDone:
				return
			default:
			}
			op := &w.reads[i]
			class := classReadKNN
			if op.class == classSelectRTree {
				class = classReadSelect
			}
			t0 := time.Now()
			status, body, err := do(c, http.MethodPost, w.srv.base+"/v1/query", op.body)
			ms := msSince(t0)
			if err != nil {
				readsS.add(class, ms, "transport: "+err.Error())
				continue
			}
			failure, r := checkAnswer(op, status, body, -1)
			readsS.add(class, ms, failure)
			if failure == "" {
				env.add(r)
			}
			rc.bytes.add(class, len(op.body), len(body))
		}
	}()
	wg.Wait()
	done := len(writes.byClass[classIngest])
	if ingestWarm+writes.attempted >= len(w.segs) {
		res.note("segment list exhausted after %d ingests", writes.attempted)
	}

	all := newSamples()
	all.merge(writes)
	all.merge(readsS)
	res.absorb(all)
	res.measuredOps = done
	res.measuredWall = writeWall

	res.e2e("ops_per_s", float64(done)/writeWall.Seconds(), "1/s")
	res.latencies(all, []string{classIngest})
	var userBytes int64
	for i := ingestWarm; i < ingestWarm+done; i++ {
		userBytes += int64(len(w.segs[i].body))
	}
	queries := len(readsS.byClass[classReadKNN]) + len(readsS.byClass[classReadSelect])
	if err := ph.finish(res, all, []string{classIngest}, &rc.bytes, done, queries, userBytes); err != nil {
		return err
	}
	res.envelopeLayer(env)
	return nil
}

// recover SIGKILLs the server mid-life (background split evaluations are
// in flight) and restarts it on the same data directory: every
// acknowledged segment must be there, and answers must not change. Once
// only: replaying the log takes as long as the measured phase did.
func (w *ingestWorkload) recover(ctx context.Context, res *runResult) error {
	dataBytes := dirBytes(w.dataDir)
	err := crashRecover(ctx, res, w.rc.seed, 1, &w.srv, w.boot, func(c *http.Client, base string) error {
		return checkStats(c, base, w.acked, w.ackedOGs)
	})
	if err != nil || !res.Correct {
		return err
	}
	m, err := scrape(newClient(), w.srv.base)
	if err != nil {
		return err
	}
	res.recoveryLayer(m, dataBytes)
	return nil
}
