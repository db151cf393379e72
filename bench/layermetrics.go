package main

import (
	"net/http"
	"strings"
)

// Per-layer metrics come from four sources (README.md has the table):
//
//	M  deltas of the server's always-on /metrics counters over the
//	   untraced measured phase — counterLayer
//	R  stats/plan fields of the response envelopes the clients already
//	   parse — envelopeStats
//	P  /proc/<pid> and data-directory sizes
//	T  spans of the in-process traced replay — layers.go
//
// A layer a workload bypasses reports 0: that is its measurement there.

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterLayer derives the M metrics from a /metrics delta.
func (r *runResult) counterLayer(m promSample, ops, queries int, userBytes int64) {
	fops, fq := float64(ops), float64(queries)
	r.layer("server.shed", m.sum("strg_http_shed_total"), "count")

	plans := m.sum("strg_query_plans_total")
	for _, s := range []string{"index", "rtree", "scan", "approx"} {
		r.layer("query.plans_"+s, ratio(m.sum("strg_query_plans_total", `strategy="`+s+`"`), plans), "ratio")
	}

	hits, misses := m.sum("strg_dist_cache_hits_total"), m.sum("strg_dist_cache_misses_total")
	r.layer("core.distcache_hit_ratio", ratio(hits, hits+misses), "ratio")

	evals, cells := m.sum("strg_dist_evals_total"), m.sum("strg_dist_dp_cells_total")
	r.layer("dist.evals_per_query", ratio(evals, fq), "count")
	r.layer("dist.dp_cells_per_query", ratio(cells, fq), "count")
	r.layer("dist.dp_abandon_ratio", ratio(m.sum("strg_dist_dp_abandoned_total"), m.sum("strg_dist_lb_passed_total")), "ratio")

	segments := m.sum("strg_ingest_segments_total")
	r.layer("dist.evals_per_ingest", ratio(evals, segments), "count")
	r.layer("index.split_evals", m.sum("strg_index_split_evals_total"), "count")
	r.layer("index.splits", m.sum("strg_index_splits_total"), "count")
	r.layer("rag.build_ms_per_segment", 1000*ratio(m.sum("strg_build_rag_seconds_sum"), segments), "ms")
	r.layer("strg.track_ms_per_segment", 1000*ratio(m.sum("strg_build_track_seconds_sum"), segments), "ms")

	r.layer("wal.bytes_per_user_byte", ratio(m.sum("strg_wal_append_bytes_total"), float64(userBytes)), "ratio")
	r.layer("wal.fsyncs_per_op", ratio(m.sum("strg_wal_fsyncs_total"), fops), "count")
	r.layer("wal.rotations", m.sum("strg_wal_rotations_total"), "count")

	approx := m.sum("strg_approx_queries_total")
	r.layer("embed.probe_rerank_us", 1e6*ratio(m.sum("strg_approx_rerank_seconds_sum"), approx), "us")
	r.layer("embed.candidates_per_query", ratio(m.sum("strg_approx_candidates_total"), approx), "count")

	r.layer("feed.events_total", m.sum("strg_feed_events_total"), "count")
	r.layer("feed.events_dropped", m.sum("strg_feed_events_dropped_total"), "count")
}

// phase brackets the untraced measured phase of one server: what is
// read before the first measured op and after the last.
type phase struct {
	srv        *serverProc
	c          *http.Client
	rttFloorMs float64
	before     promSample
	cpu0       float64
}

// beginPhase probes the round-trip floor and snapshots the server's
// counters and CPU time.
func beginPhase(srv *serverProc) (*phase, error) {
	p := &phase{srv: srv, c: newClient()}
	var err error
	if p.rttFloorMs, err = probeTransport(p.c, srv.base); err != nil {
		return nil, err
	}
	if p.before, err = scrape(p.c, srv.base); err != nil {
		return nil, err
	}
	p.cpu0, _ = srv.cpuSeconds() // best effort: /proc is Linux-only
	return p, nil
}

// finish records rss_mb and everything the phase yields besides the
// latency figures. ops is the number of measured headline operations;
// queries the number of measured /v1/query operations; userBytes the
// request bytes the writer sent.
func (p *phase) finish(r *runResult, s *samples, headline []string, bytes *byteCounter, ops, queries int, userBytes int64) error {
	cpu1, _ := p.srv.cpuSeconds()
	after, err := scrape(p.c, p.srv.base)
	if err != nil {
		return err
	}
	rss, err := p.srv.statusMB("VmHWM")
	if err != nil {
		return err
	}
	r.e2e("rss_mb", rss, "MB")
	r.layer("server.rtt_floor_us", p.rttFloorMs*1000, "us")
	r.layer("server.cpu_ms_per_op", 1000*ratio(cpu1-p.cpu0, float64(ops)), "ms")
	r.counterLayer(after.delta(p.before), ops, queries, userBytes)
	r.clientLayer(s, headline, bytes)
	return nil
}

// recoveryLayer reads the rebooted server's recovery counters: how long
// replay took per WAL record, and how many bytes the data directory held
// per acknowledged user byte.
func (r *runResult) recoveryLayer(m promSample, dataDirBytes int64) {
	r.layer("core.replay_ms_per_record",
		1000*ratio(m.sum("strg_recovery_seconds_sum"), m.sum("strg_recovery_replayed_total")), "ms")
	r.layer("core.replayed_records", m.sum("strg_recovery_replayed_total"), "count")
	r.layer("core.data_dir_mb", float64(dataDirBytes)/(1<<20), "MB")
}

// classFigures names the latency figure reported for each op class
// outside the headline ones: the median, except for the reader's
// predicate queries beside ingest, whose median flips between two modes
// (see wl_ingest.go) and whose p90 does not.
var classFigures = []struct {
	class, metric string
	q             float64
}{
	{classExact, "client.exact_p50_ms", 0.5},
	{classRange, "client.range_p50_ms", 0.5},
	{classComposed, "client.composed_p50_ms", 0.5},
	{classApprox, "client.approx_p50_ms", 0.5},
	{classReadKNN, "client.read_knn_p50_ms", 0.5},
	{classReadSelect, "client.read_select_p90_ms", 0.9},
	{classFeedCommit, "client.feed_commit_p50_ms", 0.5},
	{classFeedEvent, "client.feed_event_p50_ms", 0.5},
}

// clientLayer records what the clients saw beyond the two end-to-end
// latency figures: the other op classes' latencies and the headline
// class's p90 and p99 (all kept out of the end-to-end list because their
// run-to-run spread on this host is wider than a bound can be, see
// README.md), the failure ratio and the mean request and response sizes.
func (r *runResult) clientLayer(s *samples, headline []string, bytes *byteCounter) {
	for _, f := range classFigures {
		xs := s.byClass[f.class]
		switch {
		case len(xs) == 0:
		case f.q == 0.5:
			r.layer(f.metric, median(xs), "ms")
		default:
			if v, err := percentile(xs, f.q); err == nil {
				r.layer(f.metric, v, "ms")
			}
		}
	}
	h := s.classes(headline...)
	if p90, err := percentile(h, 0.90); err == nil {
		r.layer("client.main_p90_ms", p90, "ms")
	}
	if p99, err := percentile(h, 0.99); err == nil {
		r.layer("client.main_p99_ms", p99, "ms")
	}
	r.layer("client.fail_ratio", ratio(float64(s.failed), float64(s.attempted)), "ratio")
	bytes.mu.Lock()
	defer bytes.mu.Unlock()
	var req, rsp, n int64
	for _, c := range headline {
		req, rsp, n = req+bytes.req[c], rsp+bytes.rsp[c], n+bytes.n[c]
	}
	r.layer("server.req_bytes", ratio(float64(req), float64(n)), "B")
	r.layer("server.resp_bytes", ratio(float64(rsp), float64(n)), "B")
}

// feedLayer records the open-loop generator's lateness and the event
// stream's delivery time.
func (r *runResult) feedLayer(late, delivery []float64, journalBytes, frameBytes int64) {
	if len(late) > 0 {
		r.layer("loadgen.late_p99_us", quantile(sorted(late), 0.99), "us")
	}
	r.layer("feed.sse_delivery_us", median(delivery), "us")
	r.layer("feed.journal_bytes_per_frame_byte", ratio(float64(journalBytes), float64(frameBytes)), "ratio")
}

// envelopeStats accumulates the stats and plan fields of query answers
// (source R). One per client; merged after the measured phase.
type envelopeStats struct {
	searches                         int64 // answers from the index or the approximate tier
	records, pruned, scanned         int64
	stageMicros, stageOps            map[string]int64
	accessOut, results               int64
	rtreeProbes, rtreeCands, rtreeUs int64
}

func newEnvelopeStats() *envelopeStats {
	return &envelopeStats{stageMicros: map[string]int64{}, stageOps: map[string]int64{}}
}

func (e *envelopeStats) add(r *queryResp) {
	st := &r.Stats
	if r.Plan.Strategy == "index" {
		e.searches++
		e.records += int64(st.Records)
		e.pruned += int64(st.LBQuickPruned + st.LBEnvelopePruned)
		e.scanned += int64(st.ScannedLeaves)
	}
	for i, sg := range st.Stages {
		name := sg.Name
		if strings.HasPrefix(name, "rtree") {
			name = "rtree"
			e.rtreeProbes++
			e.rtreeCands += int64(sg.Out)
			e.rtreeUs += sg.Micros
		}
		if name == "filter" && r.Plan.Strategy == "scan" {
			name = "scan" // a scan plan's cost is its filter pass over every OG
		}
		e.stageMicros[name] += sg.Micros
		e.stageOps[name]++
		if i == 0 {
			e.accessOut += int64(sg.Out)
			e.results += int64(max(r.Total, 1))
		}
	}
}

func (e *envelopeStats) merge(o *envelopeStats) {
	e.searches += o.searches
	e.records += o.records
	e.pruned += o.pruned
	e.scanned += o.scanned
	e.accessOut += o.accessOut
	e.results += o.results
	e.rtreeProbes += o.rtreeProbes
	e.rtreeCands += o.rtreeCands
	e.rtreeUs += o.rtreeUs
	for k, v := range o.stageMicros {
		e.stageMicros[k] += v
	}
	for k, v := range o.stageOps {
		e.stageOps[k] += v
	}
}

func (r *runResult) envelopeLayer(e *envelopeStats) {
	s := float64(e.searches)
	r.layer("index.records_per_query", ratio(float64(e.records), s), "count")
	r.layer("index.pruned_ratio", ratio(float64(e.pruned), float64(e.records)), "ratio")
	r.layer("index.leaves_scanned_per_query", ratio(float64(e.scanned), s), "count")
	for _, stage := range []string{"scan", "filter", "rank"} {
		r.layer("query."+stage+"_us", ratio(float64(e.stageMicros[stage]), float64(e.stageOps[stage])), "us")
	}
	r.layer("query.examined_per_result", ratio(float64(e.accessOut), float64(e.results)), "ratio")
	r.layer("rtree.probe_us", ratio(float64(e.rtreeUs), float64(e.rtreeProbes)), "us")
	r.layer("rtree.candidates_per_probe", ratio(float64(e.rtreeCands), float64(e.rtreeProbes)), "count")
}
