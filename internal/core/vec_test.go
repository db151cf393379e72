package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/eval"
	"strgindex/internal/index"
	"strgindex/internal/query"
	"strgindex/internal/strg"
	"strgindex/internal/synth"
)

// approxDB ingests the lab stream into a database with the approximate
// tier on, with an IVF small enough that the mini corpus actually trains
// it (the default TrainSize would leave it a single flat list).
func approxDB(t *testing.T, mut func(*Config)) *VideoDB {
	t.Helper()
	return composedDB(t, func(c *Config) {
		c.Approx = ApproxConfig{Enabled: true, NLists: 4, TrainSize: 16}
		if mut != nil {
			mut(c)
		}
	})
}

// checkStatsInvariant: every record that entered the rerank cascade must
// be accounted for exactly once — the same invariant the tree search
// holds.
func checkStatsInvariant(t *testing.T, st index.SearchStats) {
	t.Helper()
	if sum := st.LBQuickPruned + st.LBEnvelopePruned + st.DPEvaluated + st.DPAbandoned; st.Records != sum {
		t.Errorf("stats invariant broken: Records=%d but cascade outcomes sum to %d (%+v)", st.Records, sum, st)
	}
}

// TestApproxDisabledSentinel: without Config.Approx.Enabled, a declarative
// "mode": "approx" query must fail with ErrApproxDisabled — a
// configuration error the server maps to 400, never a silent fallback to
// a different access path.
func TestApproxDisabledSentinel(t *testing.T) {
	db := composedDB(t, nil)
	traj := dist.Sequence{{16, 120}, {46, 120}, {76, 120}, {106, 120}}
	_, err := db.QueryComposedCtx(context.Background(), &query.Query{
		Similar: &query.SimilarClause{Trajectory: traj, K: 5, Mode: query.ModeApprox},
	})
	if !errors.Is(err, ErrApproxDisabled) {
		t.Errorf("err = %v, want ErrApproxDisabled", err)
	}
}

// TestApproxFullProbeIsExact: probing every list makes the candidate set
// the whole corpus, so recall against the exact all-cluster search must
// be 1.0 — by construction, not by luck. Distances must agree exactly
// (the rerank runs the same cascade).
func TestApproxFullProbeIsExact(t *testing.T) {
	db := approxDB(t, nil)
	queries := []dist.Sequence{
		{{16, 120}, {46, 120}, {76, 120}, {106, 120}},
		{{160, 10}, {160, 120}, {160, 230}},
		{{300, 240}, {200, 150}, {100, 60}},
	}
	nlists := db.vec.ivf.NLists()
	if nlists < 2 {
		t.Fatalf("IVF did not train (%d lists); the contract test needs a real probe decision", nlists)
	}
	const k = 7
	for qi, traj := range queries {
		res := approxKNN(t, db, traj, k, nlists)
		approx, st, info := res.Matches, res.Search, res.Approx
		checkStatsInvariant(t, st)
		if info.Probed != nlists || info.RecallProxy != 1 {
			t.Errorf("query %d: probed %d/%d lists, proxy %g; want all and 1.0", qi, info.Probed, nlists, info.RecallProxy)
		}
		if st.Records != db.Stats().OGs {
			t.Errorf("query %d: full probe reranked %d of %d OGs", qi, st.Records, db.Stats().OGs)
		}
		exact := knnExact(t, db, traj, k)
		ids := func(ms []Match) []int {
			out := make([]int, len(ms))
			for i, m := range ms {
				out[i] = m.Record.OGID
			}
			return out
		}
		if r := eval.RecallAtK(ids(approx), ids(exact), k); r != 1 {
			t.Errorf("query %d: recall@%d = %g with every list probed, want 1", qi, k, r)
		}
		for i := range approx {
			if approx[i].Distance != exact[i].Distance {
				t.Errorf("query %d rank %d: approx distance %v, exact %v", qi, i, approx[i].Distance, exact[i].Distance)
			}
		}
	}
}

// TestApproxHugeKClamped: k is a client number, so the approximate top-k
// is sized by the corpus, not by k. k = MaxInt returns no more matches
// than the corpus holds, in (distance, OGID) order, where sizing by k
// would ask the runtime for a slice it cannot make.
func TestApproxHugeKClamped(t *testing.T) {
	db := approxDB(t, nil)
	traj := dist.Sequence{{16, 120}, {106, 120}, {200, 120}}
	ms := approxKNN(t, db, traj, math.MaxInt, db.vec.ivf.NLists()).Matches
	if n := db.Stats().OGs; len(ms) == 0 || len(ms) > n {
		t.Fatalf("%d matches from a corpus of %d OGs", len(ms), n)
	}
	for i := 1; i < len(ms); i++ {
		a, b := ms[i-1], ms[i]
		if a.Distance > b.Distance || (a.Distance == b.Distance && a.Record.OGID >= b.Record.OGID) {
			t.Fatalf("rank %d: (%v, %d) after (%v, %d)", i, b.Distance, b.Record.OGID, a.Distance, a.Record.OGID)
		}
	}
}

// TestApproxRecallMonotoneNProbe: widening the probe can only improve (or
// keep) recall — the candidate set at nprobe+1 is a superset.
func TestApproxRecallMonotoneNProbe(t *testing.T) {
	db := approxDB(t, nil)
	traj := dist.Sequence{{16, 120}, {106, 120}, {200, 120}}
	const k = 5
	exact := knnExact(t, db, traj, k)
	exactIDs := make([]int, len(exact))
	for i, m := range exact {
		exactIDs[i] = m.Record.OGID
	}
	prev := -1.0
	for nprobe := 1; nprobe <= db.vec.ivf.NLists(); nprobe++ {
		res := approxKNN(t, db, traj, k, nprobe)
		ms := res.Matches
		checkStatsInvariant(t, res.Search)
		ids := make([]int, len(ms))
		for i, m := range ms {
			ids[i] = m.Record.OGID
		}
		r := eval.RecallAtK(ids, exactIDs, k)
		if r < prev {
			t.Errorf("nprobe %d: recall %g dropped below %g", nprobe, r, prev)
		}
		prev = r
	}
	if prev != 1 {
		t.Errorf("recall at full probe = %g, want 1", prev)
	}
}

// TestExactPathsByteIdenticalWithTierOn: compiling the tier in (and
// feeding it every ingest) must not change one byte of the exact
// surfaces — answers and SearchStats — at any shard count. This is the
// "default paths untouched" half of the tier's contract.
func TestExactPathsByteIdenticalWithTierOn(t *testing.T) {
	traj := dist.Sequence{{16, 120}, {46, 120}, {76, 120}, {106, 120}}
	for _, shards := range []int{1, 2, 4} {
		mut := func(on bool) func(*Config) {
			return func(c *Config) {
				c.Index.Shards = shards
				c.Approx = ApproxConfig{Enabled: on, NLists: 4, TrainSize: 16}
			}
		}
		plain := composedDB(t, mut(false))
		tiered := composedDB(t, mut(true))

		for _, c := range []struct {
			name string
			sim  query.SimilarClause
		}{
			{"knn", query.SimilarClause{Trajectory: traj, K: 5}},
			{"knn-exact", query.SimilarClause{Trajectory: traj, K: 5, Exact: true}},
			{"range", query.SimilarClause{Trajectory: traj, Radius: 950}},
		} {
			want, got := similar(t, plain, c.sim), similar(t, tiered, c.sim)
			if !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Errorf("shards=%d %s: matches differ with the tier compiled in", shards, c.name)
			}
			if got.Search != want.Search {
				t.Errorf("shards=%d %s: SearchStats %+v with tier, %+v without", shards, c.name, got.Search, want.Search)
			}
		}

		// The declarative surface: "mode": "exact" (and no mode at all)
		// must route identically on both databases.
		for _, mode := range []string{"", query.ModeExact} {
			q := func() *query.Query {
				return &query.Query{Similar: &query.SimilarClause{Trajectory: traj, K: 5, Mode: mode}}
			}
			want := composed(t, plain, q())
			got := composed(t, tiered, q())
			if got.Plan.Strategy != query.StrategyIndex || want.Plan.Strategy != query.StrategyIndex {
				t.Fatalf("shards=%d mode=%q: strategies %s/%s, want index", shards, mode, got.Plan.Strategy, want.Plan.Strategy)
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) || got.Search != want.Search {
				t.Errorf("shards=%d mode=%q: composed exact path differs with the tier on", shards, mode)
			}
		}
	}
}

// TestApproxComposedFlow: the declarative opt-in end to end — strategy
// "approx", resolved nprobe in the plan, probe accounting in the result,
// and a recall_target of 1 probing every list (provably exact).
func TestApproxComposedFlow(t *testing.T) {
	db := approxDB(t, nil)
	traj := dist.Sequence{{16, 120}, {46, 120}, {76, 120}, {106, 120}}

	res := composed(t, db, &query.Query{
		Similar: &query.SimilarClause{Trajectory: traj, K: 5, Mode: query.ModeApprox, RecallTarget: 1},
	})
	if res.Plan.Strategy != query.StrategyApprox {
		t.Fatalf("strategy = %s, want approx", res.Plan.Strategy)
	}
	if res.Plan.NProbe != db.vec.ivf.NLists() {
		t.Errorf("recall_target 1 resolved nprobe %d, want all %d lists", res.Plan.NProbe, db.vec.ivf.NLists())
	}
	if res.Approx == nil || res.Approx.Probed != db.vec.ivf.NLists() || res.Approx.RecallProxy != 1 {
		t.Errorf("approx info = %+v, want full probe with proxy 1", res.Approx)
	}
	checkStatsInvariant(t, res.Search)
	exact := knnExact(t, db, traj, 5)
	if len(res.Matches) != len(exact) {
		t.Fatalf("%d matches, exact %d", len(res.Matches), len(exact))
	}
	for i := range exact {
		if res.Matches[i].Distance != exact[i].Distance {
			t.Errorf("rank %d: distance %v, exact %v", i, res.Matches[i].Distance, exact[i].Distance)
		}
	}

	// An explicit nprobe lands in the plan and the limit still applies.
	res = composed(t, db, &query.Query{
		Similar: &query.SimilarClause{Trajectory: traj, K: 5, Mode: query.ModeApprox, NProbe: 2},
		Limit:   2,
	})
	if res.Plan.NProbe != 2 || res.Approx.Probed != 2 {
		t.Errorf("nprobe 2 resolved to plan %d / probed %d", res.Plan.NProbe, res.Approx.Probed)
	}
	if len(res.Matches) != 2 || res.Total != 5 || !res.Truncated {
		t.Errorf("limit: got %d/%d truncated=%v, want 2/5 true", len(res.Matches), res.Total, res.Truncated)
	}
}

// TestEmbeddingTierDeterministic: the tier is a pure function of the
// ingest stream — worker counts must not leak into it, and a snapshot
// round trip must restore it bit-identically.
func TestEmbeddingTierDeterministic(t *testing.T) {
	build := func(conc int) *VideoDB {
		return composedDB(t, func(c *Config) {
			c.Concurrency = conc
			c.Approx = ApproxConfig{Enabled: true, NLists: 4, TrainSize: 16}
		})
	}
	seq := build(1)
	par := build(4)
	if !reflect.DeepEqual(seq.vec.ivf.Snapshot(), par.vec.ivf.Snapshot()) {
		t.Error("IVF state differs between Concurrency 1 and 4")
	}

	var buf bytes.Buffer
	if err := seq.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Approx = ApproxConfig{Enabled: true, NLists: 4, TrainSize: 16}
	re, err := Load(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.vec.ivf.Snapshot(), seq.vec.ivf.Snapshot()) {
		t.Error("IVF state differs across the save/load round trip")
	}
	if len(re.vec.seqs) != len(seq.vec.seqs) || len(re.vec.sums) != len(seq.vec.sums) {
		t.Errorf("rerank caches hold %d/%d entries after load, want %d", len(re.vec.seqs), len(re.vec.sums), len(seq.vec.seqs))
	}
}

// TestApproxSnapshotCrossCompat: the four corners of the version-3
// container — saved with/without the tier, loaded with/without it — plus
// a version-byte-2 file (the pre-tier format) loaded under a tier-enabled
// config, which must rebuild deterministically from the OG stream.
func TestApproxSnapshotCrossCompat(t *testing.T) {
	tierCfg := func() Config {
		cfg := DefaultConfig()
		cfg.Approx = ApproxConfig{Enabled: true, NLists: 4, TrainSize: 16}
		return cfg
	}
	withTier := approxDB(t, nil)
	withoutTier := composedDB(t, nil)
	traj := dist.Sequence{{16, 120}, {46, 120}, {76, 120}, {106, 120}}

	save := func(db *VideoDB) []byte {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	tierBytes, plainBytes := save(withTier), save(withoutTier)

	// Tier-enabled snapshot under a tier-disabled config: Vec is ignored.
	re, err := Load(bytes.NewReader(tierBytes), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if re.vec != nil {
		t.Error("tier-disabled load materialized a vector tier")
	}
	if _, _, err := search(re, query.SimilarClause{Trajectory: traj, K: 5, Mode: query.ModeApprox}); !errors.Is(err, ErrApproxDisabled) {
		t.Errorf("approx query on tier-disabled load: %v, want ErrApproxDisabled", err)
	}

	// Tier-disabled snapshot under a tier-enabled config: rebuilt from
	// OGs, bit-identical to the incrementally maintained tier.
	re, err = Load(bytes.NewReader(plainBytes), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.vec.ivf.Snapshot(), withTier.vec.ivf.Snapshot()) {
		t.Error("tier rebuilt from a Vec-less snapshot differs from the maintained one")
	}

	// A version-2 container (the previous format, byte-patched the way
	// TestV1SnapshotStillLoads emulates old files) still loads either way.
	v2 := append([]byte(nil), plainBytes...)
	binary.LittleEndian.PutUint32(v2[8:], 2)
	if _, err := Load(bytes.NewReader(v2), DefaultConfig()); err != nil {
		t.Fatalf("v2 container under default config: %v", err)
	}
	re, err = Load(bytes.NewReader(v2), tierCfg())
	if err != nil {
		t.Fatalf("v2 container under tier config: %v", err)
	}
	res := approxKNN(t, re, traj, 5, re.vec.ivf.NLists())
	ms := res.Matches
	checkStatsInvariant(t, res.Search)
	exact := knnExact(t, re, traj, 5)
	for i := range exact {
		if ms[i].Distance != exact[i].Distance {
			t.Errorf("rank %d after v2 load: approx %v, exact %v", i, ms[i].Distance, exact[i].Distance)
		}
	}

	// A corrupt vector index must be rejected as corruption, not loaded.
	img, err := readSnapshot(bytes.NewReader(tierBytes))
	if err != nil {
		t.Fatal(err)
	}
	img.Vec.Count++ // lists no longer sum to Count
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, img); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), tierCfg()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("poisoned vector index loaded: err = %v, want ErrCorrupt", err)
	}
}

// TestIngestTrajectories: the bulk path must build the same queryable
// state the segment pipeline would — indexed, predicate-visible,
// embedded, spatially indexed — and, on a durable database, be logged.
func TestIngestTrajectories(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Approx = ApproxConfig{Enabled: true, NLists: 4, TrainSize: 16}
	db := Open(cfg)

	rng := rand.New(rand.NewSource(9))
	const n = 60
	ogs := make([]*strg.OG, n)
	for i := range ogs {
		seq := make(dist.Sequence, 12)
		x, y := rng.Float64()*320, rng.Float64()*240
		for j := range seq {
			x += rng.NormFloat64() * 5
			y += rng.NormFloat64() * 5
			seq[j] = dist.Vec{x, y}
		}
		ogs[i] = synth.AsOG(i, seq, fmt.Sprintf("lab-%d", i%4))
	}
	if err := db.IngestTrajectories("cam0", ogs[:40]); err != nil {
		t.Fatal(err)
	}
	if err := db.IngestTrajectories("cam0", ogs[40:]); err != nil {
		t.Fatal(err)
	}

	if got := db.Stats().OGs; got != n {
		t.Fatalf("indexed %d OGs, want %d", got, n)
	}
	if len(db.ogs) != n || len(db.records) != n || db.vec.ivf.Len() != n {
		t.Fatalf("retained %d OGs / %d records / %d vectors, want %d each", len(db.ogs), len(db.records), db.vec.ivf.Len(), n)
	}
	for i, r := range db.records {
		if r.OGID != i || r.Stream != "cam0" {
			t.Fatalf("record %d = %+v, want OGID %d on cam0", i, r, i)
		}
	}
	if err := db.CheckSpatialIndex(); err != nil {
		t.Fatal(err)
	}

	q := ogs[17].Sequence()
	exact := knnExact(t, db, q, 3)
	if len(exact) != 3 || exact[0].Record.OGID != 17 || exact[0].Distance != 0 {
		t.Errorf("self-query top hit = %+v, want OG 17 at distance 0", exact[0])
	}
	res := approxKNN(t, db, q, 3, db.vec.ivf.NLists())
	approx := res.Matches
	checkStatsInvariant(t, res.Search)
	if approx[0].Record.OGID != 17 || approx[0].Distance != 0 {
		t.Errorf("approx self-query top hit = %+v, want OG 17 at distance 0", approx[0])
	}

	// The bulk path commits through the same record the WAL logs, so on a
	// durable database it survives a kill: drop the handle without Close
	// or Checkpoint, reopen, and the log alone brings the same answers back.
	dir := t.TempDir()
	s, _, err := OpenDurable(cfg, noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]*strg.OG{ogs[:40], ogs[40:]} {
		s.mu.Lock()
		err := s.db.IngestTrajectories("cam0", batch)
		s.afterIngestLocked(err)
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	s2, rec, err := OpenDurable(cfg, noRotate(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.SnapshotLoaded || rec.ReplayedRecords != 2 {
		t.Errorf("recovery = %+v, want 2 records replayed and no snapshot", rec)
	}
	if got, want := s2.Stats(), db.Stats(); got != want {
		t.Errorf("stats after reopen:\n  got  %+v\n  want %+v", got, want)
	}
	if got := knnExact(t, s2, q, 3); !reflect.DeepEqual(got, exact) {
		t.Errorf("exact k-NN after reopen = %+v, want %+v", got, exact)
	}
	if got := approxKNN(t, s2, q, 3, db.vec.ivf.NLists()).Matches; !reflect.DeepEqual(got, approx) {
		t.Errorf("approx k-NN after reopen = %+v, want %+v", got, approx)
	}
	if got, want := s2.SegmentsIn("cam0"), 2; got != want {
		t.Errorf("SegmentsIn(cam0) after reopen = %d, want %d", got, want)
	}
}
