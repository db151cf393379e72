package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/faultfs"
	"strgindex/internal/query"
	"strgindex/internal/strg"
)

// serverConfig mirrors the configuration cmd/strg-server assembles from
// its default flags (plus -approx), so a database the harness builds and
// saves is the database the server would have built itself.
func serverConfig(approx bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.DistCacheSize = -1
	cfg.Index.Shards = 4
	cfg.Index.AsyncSplit = true
	cfg.Approx = core.ApproxConfig{Enabled: approx}
	return cfg
}

// Corpus size and bulk-load batching: the first batch seeds the cluster
// structure with a BIC scan (quadratic in its size), later batches ride
// the deferred-split append path. 3000 OGs build in about two seconds; a
// run sets up three times.
const (
	corpusOGs        = 3000
	corpusFirstBatch = 256
	corpusBatch      = 2000
)

// buildCorpusDB bulk-loads ogs into a fresh database and lets background
// split evaluations settle.
func buildCorpusDB(ogs []*strg.OG, cfg core.Config) (*core.VideoDB, error) {
	db := core.Open(cfg)
	for lo := 0; lo < len(ogs); {
		hi := lo + corpusBatch
		if lo == 0 {
			hi = corpusFirstBatch
		}
		if hi > len(ogs) {
			hi = len(ogs)
		}
		if err := db.IngestTrajectories("corpus", ogs[lo:hi]); err != nil {
			return nil, err
		}
		lo = hi
	}
	db.QuiesceIndex()
	return db, nil
}

// queryResp is the part of the /v1/query envelope the harness reads.
type queryResp struct {
	Matches []struct {
		OGID     int     `json:"og_id"`
		Distance float64 `json:"distance"`
	} `json:"matches"`
	Total     int  `json:"total"`
	Truncated bool `json:"truncated"`
	Stats     struct {
		ScannedLeaves    int `json:"scanned_leaves"`
		Records          int `json:"records"`
		LBQuickPruned    int `json:"lb_quick_pruned"`
		LBEnvelopePruned int `json:"lb_envelope_pruned"`
		Stages           []struct {
			Name   string `json:"name"`
			Out    int    `json:"out"`
			Micros int64  `json:"micros"`
		} `json:"stages"`
	} `json:"stats"`
	Plan struct {
		Strategy string `json:"strategy"`
	} `json:"plan"`
}

// checkAnswer applies the checks every query answer must pass: status
// 200, the class's planner strategy, min(k,total) matches (or the limit
// rule for predicate-only answers), non-decreasing distances, and a
// range answer inside its radius. A negative corpus size means a live
// database: its size is unknown and the planner's choice is not pinned.
// It returns "" when the answer passes.
func checkAnswer(op *queryOp, status int, body []byte, corpus int) (string, *queryResp) {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d: %s", status, truncate(body, 160)), nil
	}
	var r queryResp
	if err := json.Unmarshal(body, &r); err != nil {
		return "undecodable answer: " + err.Error(), nil
	}
	if want := wantStrategy[op.class]; corpus >= 0 && r.Plan.Strategy != want {
		return fmt.Sprintf("plan %q, want %q", r.Plan.Strategy, want), &r
	}
	switch {
	case op.k > 0:
		want := min(op.k, corpus)
		if op.class == classComposed || corpus < 0 {
			// total is min(k, OGs that qualify); the matcher oracle
			// checks the count on a sample.
			want = min(op.k, r.Total)
		}
		if len(r.Matches) != want || r.Total != want {
			return fmt.Sprintf("%d matches (total %d), want %d", len(r.Matches), r.Total, want), &r
		}
	case op.radius > 0:
		if len(r.Matches) != r.Total {
			return fmt.Sprintf("%d matches but total %d", len(r.Matches), r.Total), &r
		}
		for _, m := range r.Matches {
			if m.Distance > op.radius {
				return fmt.Sprintf("range match at %.3f beyond radius %.3f", m.Distance, op.radius), &r
			}
		}
	default:
		want := r.Total
		if op.limit > 0 && want > op.limit {
			want = op.limit
		}
		if len(r.Matches) != want || r.Truncated != (r.Total > want) {
			return fmt.Sprintf("%d matches, total %d, truncated %v, limit %d", len(r.Matches), r.Total, r.Truncated, op.limit), &r
		}
	}
	if op.traj != nil {
		for i := 1; i < len(r.Matches); i++ {
			if r.Matches[i].Distance < r.Matches[i-1].Distance {
				return fmt.Sprintf("distances decrease at %d", i), &r
			}
		}
	}
	return "", &r
}

// bruteForceKNN is the reference answer: a linear EGED_M scan (zero gap,
// the index's key metric) over every corpus OG, ties toward the lower id.
func bruteForceKNN(ogs []*strg.OG, q dist.Sequence, k int) []core.Match {
	type cand struct {
		id int
		d  float64
	}
	cs := make([]cand, len(ogs))
	for i, og := range ogs {
		cs[i] = cand{i, dist.EGEDMZero(q, og.Sequence())}
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].d != cs[b].d {
			return cs[a].d < cs[b].d
		}
		return cs[a].id < cs[b].id
	})
	if k > len(cs) {
		k = len(cs)
	}
	out := make([]core.Match, k)
	for i := range out {
		out[i] = core.Match{Record: core.ClipRecord{OGID: cs[i].id}, Distance: cs[i].d}
	}
	return out
}

// checkExact compares an exact k-NN answer with the brute-force scan:
// identical distances, and identical ids wherever the distance is not
// tied with a neighbour.
func checkExact(ogs []*strg.OG, op *queryOp, r *queryResp) string {
	want := bruteForceKNN(ogs, op.traj, op.k)
	if len(r.Matches) != len(want) {
		return fmt.Sprintf("exact: %d matches, brute force %d", len(r.Matches), len(want))
	}
	for i, m := range r.Matches {
		if math.Abs(m.Distance-want[i].Distance) > 1e-9*math.Max(1, want[i].Distance) {
			return fmt.Sprintf("exact: rank %d distance %.9f, brute force %.9f", i, m.Distance, want[i].Distance)
		}
		tied := (i > 0 && want[i-1].Distance == want[i].Distance) ||
			(i+1 < len(want) && want[i+1].Distance == want[i].Distance) || i+1 == len(want)
		if !tied && m.OGID != want[i].Record.OGID {
			return fmt.Sprintf("exact: rank %d is og %d, brute force og %d", i, m.OGID, want[i].Record.OGID)
		}
	}
	return ""
}

// checkPredicateTotal compares an answer's total with query.Matcher
// evaluated over every corpus OG.
func checkPredicateTotal(ogs []*strg.OG, op *queryOp, r *queryResp) string {
	q, err := query.Parse(op.body)
	if err != nil {
		return "oracle cannot parse op: " + err.Error()
	}
	exactQ := *q
	if q.Similar != nil {
		exactQ.Similar = nil // count the predicate alone; rank keeps min(k, count)
	}
	m, err := query.NewMatcher(&exactQ, nil)
	if err != nil {
		return "oracle matcher: " + err.Error()
	}
	n := 0
	for _, og := range ogs {
		if m.Match(og) {
			n++
		}
	}
	want := n
	if q.Similar != nil && q.Similar.K > 0 && want > q.Similar.K {
		want = q.Similar.K
	}
	if r.Total != want {
		return fmt.Sprintf("%s: total %d, matcher oracle %d", op.class, r.Total, want)
	}
	return ""
}

// oracleSample is how many answers of each checked kind the per-run
// oracles re-derive from scratch.
const oracleSample = 64

// queryWorkload is query_similarity or query_planned: a corpus built and
// saved by the harness, served read-only by `strg-server -db … -approx`.
type queryWorkload struct {
	rc  *runCtx
	mix []string
	// headline is the op classes behind main_p50_ms and main_p75_ms.
	headline []string

	ogs    []*strg.OG
	ops    []queryOp
	dbPath string
	srv    *serverProc
	// warm is the number of ops the warm-up consumed; measured ops start
	// there.
	warm int
	// soloP50 is the headline class's median latency (ms) with one client
	// and an otherwise idle server: what a request costs without a second
	// client competing for the two CPUs.
	soloP50 float64
}

// sizes returns the corpus size, the op-list length, and the two parts
// of the warm-up: ops per client with every client running, then ops
// from one client alone.
func (w *queryWorkload) sizes() (corpus, ops, warmPerClient, solo int) {
	if w.rc.smoke {
		return 500, 500, 10, 20
	}
	// ops is a ceiling sized well above what two closed-loop clients
	// complete in a run, so the list never wraps.
	return corpusOGs, 1000 + int(3000*w.rc.seconds), 250, 200
}

func (w *queryWorkload) setup(ctx context.Context) error {
	nCorpus, nOps, warm, soloOps := w.sizes()
	var err error
	if w.ogs, err = genCorpus(w.rc.seed, nCorpus); err != nil {
		return err
	}
	db, err := buildCorpusDB(w.ogs, serverConfig(true))
	if err != nil {
		return err
	}
	w.dbPath = filepath.Join(w.rc.workDir, "corpus.db")
	if err := db.SaveFile(faultfs.OS{}, w.dbPath); err != nil {
		return err
	}
	if w.ops, err = genQueryOps(w.rc.seed, nOps, w.mix); err != nil {
		return err
	}
	if w.srv, err = w.boot(ctx); err != nil {
		return err
	}
	// Warm-up: connections, server caches and lazy set-up settle outside
	// the measured phase.
	w.warm = warm * w.rc.clients
	cs := w.rc.newClients()
	fails := make([]error, w.rc.clients) // one slot per client goroutine
	warmOp := func(c, i int) float64 {
		t0 := time.Now()
		status, body, err := do(cs[c], http.MethodPost, w.srv.base+"/v1/query", w.ops[i].body)
		if err != nil || status != http.StatusOK {
			fails[c] = fmt.Errorf("warm-up op %d: status %d err %v: %s", i, status, err, truncate(body, 160))
		}
		return msSince(t0)
	}
	closedLoop(w.rc.clients, time.Time{}, 0, w.warm, func(c, i int) { warmOp(c, i) })
	solo := newSamples()
	for i := w.warm; i < w.warm+soloOps; i++ {
		solo.add(w.ops[i].class, warmOp(0, i), "")
	}
	w.warm += soloOps
	w.soloP50 = median(solo.classes(w.headline...))
	for _, err := range fails {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *queryWorkload) opListHash() string {
	bodies := make([][]byte, len(w.ops))
	for i := range w.ops {
		bodies[i] = w.ops[i].body
	}
	return opListHash(bodies...)
}

func (w *queryWorkload) boot(ctx context.Context) (*serverProc, error) {
	return startServer(ctx, w.rc.serverBin, w.rc.serverLog(), "-db", w.dbPath, "-approx")
}

func (w *queryWorkload) teardown() {
	if w.srv != nil {
		w.srv.kill9()
		w.srv = nil
	}
	if w.dbPath != "" {
		os.Remove(w.dbPath)
	}
}

func (w *queryWorkload) measure(ctx context.Context, res *runResult) error {
	rc := w.rc
	cs := rc.newClients()
	per := make([]*samples, rc.clients)
	envs := make([]*envelopeStats, rc.clients)
	kept := make([][]keptAnswer, rc.clients)
	for i := range per {
		per[i], envs[i] = newSamples(), newEnvelopeStats()
	}
	ph, err := beginPhase(w.srv)
	if err != nil {
		return err
	}

	deadline := time.Now().Add(rc.duration())
	done, wall := closedLoop(rc.clients, deadline, w.warm, len(w.ops)-w.warm, func(c, i int) {
		op := &w.ops[i]
		t0 := time.Now()
		status, body, err := do(cs[c], http.MethodPost, w.srv.base+"/v1/query", op.body)
		ms := msSince(t0)
		if err != nil {
			per[c].add(op.class, ms, "transport: "+err.Error())
			return
		}
		failure, r := checkAnswer(op, status, body, len(w.ogs))
		per[c].add(op.class, ms, failure)
		if failure != "" {
			return
		}
		envs[c].add(r)
		if len(kept[c]) < 4*oracleSample {
			kept[c] = append(kept[c], keptAnswer{op: op, resp: r})
		}
		rc.bytes.add(op.class, len(op.body), len(body))
	})
	if done >= len(w.ops)-w.warm {
		res.note("op list exhausted after %d ops: latencies past that point are missing", done)
	}

	all, env := newSamples(), newEnvelopeStats()
	for i := range per {
		all.merge(per[i])
		env.merge(envs[i])
	}
	// Sampled oracles: brute force for exact answers, the matcher for
	// predicate totals, recall against brute force for approximate ones.
	checked := map[string]int{}
	var recall []float64
	for _, ks := range kept {
		for _, ka := range ks {
			var failure string
			switch ka.op.class {
			case classExact:
				if checked[classExact] >= oracleSample {
					continue
				}
				failure = checkExact(w.ogs, ka.op, ka.resp)
			case classSelectRTree, classSelectScan, classComposed:
				if checked[ka.op.class] >= oracleSample {
					continue
				}
				failure = checkPredicateTotal(w.ogs, ka.op, ka.resp)
			case classApprox:
				if checked[classApprox] < oracleSample {
					checked[classApprox]++
					recall = append(recall, recallAt(w.ogs, ka.op, ka.resp))
				}
				continue
			default:
				continue
			}
			checked[ka.op.class]++
			if failure != "" {
				all.failed++
				if all.firstFailure == "" {
					all.firstFailure = failure
				}
			}
		}
	}
	if len(recall) > 0 {
		mean := 0.0
		for _, v := range recall {
			mean += v
		}
		mean /= float64(len(recall))
		res.layer("embed.recall_at_10", mean, "ratio")
		if mean < minRecall {
			res.fail("approximate tier recall@10 %.3f over %d queries is below %.2f", mean, len(recall), minRecall)
		}
	}
	res.absorb(all)
	res.measuredOps = done
	res.measuredWall = wall

	res.e2e("ops_per_s", float64(done)/wall.Seconds(), "1/s")
	res.latencies(all, w.headline)
	if err := ph.finish(res, all, w.headline, &rc.bytes, done, done, 0); err != nil {
		return err
	}
	res.envelopeLayer(env)
	var st core.Stats
	data, err := mustOK(ph.c, http.MethodGet, w.srv.base+"/v1/stats", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	res.layer("index.clusters", float64(st.Clusters), "count")
	res.layer("client.solo_p50_ms", w.soloP50, "ms")
	res.layer("server.contention_us", 1000*(res.EndToEnd["main_p50_ms"].Value-w.soloP50), "us")
	return nil
}

// minRecall is the approximate tier's guard: a run whose sampled
// recall@10 falls below it fails.
const minRecall = 0.90

// recallAt is the share of the brute-force top k an approximate answer
// returned.
func recallAt(ogs []*strg.OG, op *queryOp, r *queryResp) float64 {
	want := map[int]bool{}
	for _, m := range bruteForceKNN(ogs, op.traj, op.k) {
		want[m.Record.OGID] = true
	}
	hit := 0
	for _, m := range r.Matches {
		if want[m.OGID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// keptAnswer is an answer held for the sampled oracles.
type keptAnswer struct {
	op   *queryOp
	resp *queryResp
}

// recover SIGKILLs the server and restarts it on the same database file
// five times (a restart is a quarter of a second): it must serve the same
// corpus and the same answers every time.
func (w *queryWorkload) recover(ctx context.Context, res *runResult) error {
	return crashRecover(ctx, res, w.rc.seed, 5, &w.srv, w.boot, func(c *http.Client, base string) error {
		return checkStats(c, base, -1, len(w.ogs))
	})
}

// goldenAnswer returns the matches and total of one query answer as raw
// bytes: the part that must survive a restart byte for byte (stats and
// stage timings legitimately differ between processes).
func goldenAnswer(c *http.Client, base string, body []byte) ([]byte, error) {
	data, err := mustOK(c, http.MethodPost, base+"/v1/query", body, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var env struct {
		Matches json.RawMessage `json:"matches"`
		Total   json.RawMessage `json:"total"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	return append(append([]byte(nil), env.Matches...), env.Total...), nil
}

// checkStats compares GET /v1/stats with the acknowledged state;
// a negative expectation is not checked.
func checkStats(c *http.Client, base string, segments, ogs int) error {
	data, err := mustOK(c, http.MethodGet, base+"/v1/stats", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var st core.Stats
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if segments >= 0 && st.Segments != segments {
		return fmt.Errorf("stats report %d segments, %d were acknowledged", st.Segments, segments)
	}
	if ogs >= 0 && st.OGs != ogs {
		return fmt.Errorf("stats report %d OGs, want %d", st.OGs, ogs)
	}
	return nil
}

// probeTransport is the median round trip of GET /healthz in
// milliseconds: a request that does no work, so what remains is the
// socket, the HTTP framing and the server's middleware.
func probeTransport(c *http.Client, base string) (float64, error) {
	const n = 200
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := mustOK(c, http.MethodGet, base+"/healthz", nil, http.StatusOK); err != nil {
			return 0, err
		}
		xs = append(xs, msSince(t0))
	}
	return median(xs), nil
}
