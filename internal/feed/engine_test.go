package feed

import (
	"context"
	"math"
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/query"
	"strgindex/internal/video"
)

// engineHarness is a database + service pair plus the stream segments the
// tests ingest on demand. Standing queries observe every ingest path, not
// only feeds, so these tests drive IngestSegment directly.
type engineHarness struct {
	db   *core.SharedDB
	svc  *Service
	segs []*video.Segment
}

func newEngineHarness(t *testing.T) *engineHarness {
	t.Helper()
	p := video.StreamProfile{
		Name: "Mini", Kind: video.KindLab,
		NumObjects: 8, SegmentFrames: 16, ObjectsPerSegment: 2,
	}
	stream, err := video.GenerateStream(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.Segments) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(stream.Segments))
	}
	cfg := core.DefaultConfig()
	db := core.OpenShared(cfg)
	svc, err := Open(Options{Dir: t.TempDir(), DB: db, STRG: &cfg.STRG})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return &engineHarness{db: db, svc: svc, segs: stream.Segments}
}

func (h *engineHarness) ingest(t *testing.T, i int) {
	t.Helper()
	if _, err := h.db.IngestSegment("Mini", h.segs[i]); err != nil {
		t.Fatal(err)
	}
}

// drain reads every buffered event, asserting dense monotone sequence
// numbers from the cursor.
func drain(t *testing.T, sub *Subscription, after uint64) []Event {
	t.Helper()
	evs, gapped, _ := sub.EventsSince(after)
	if gapped {
		t.Fatalf("unexpected gap reading from %d", after)
	}
	for i, ev := range evs {
		if ev.Seq != after+uint64(i)+1 {
			t.Fatalf("event %d has seq %d, want dense from %d: %+v", i, ev.Seq, after+1, evs)
		}
	}
	return evs
}

func testTrajectory() dist.Sequence {
	return dist.Sequence{{20, 120}, {100, 120}, {180, 120}, {280, 120}}
}

func TestEnginePredicateForwardOnly(t *testing.T) {
	h := newEngineHarness(t)
	eng := h.svc.Engine()
	h.ingest(t, 0)
	eng.Quiesce()
	before := h.db.Stats().OGs

	sub, err := eng.Register(&query.Query{Where: query.LengthNode{Min: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.LastSeq() != 0 {
		t.Errorf("predicate subscription delivered %d historical events; it is forward-only", sub.LastSeq())
	}
	h.ingest(t, 1)
	eng.Quiesce()
	added := h.db.Stats().OGs - before
	evs := drain(t, sub, 0)
	if len(evs) != added {
		t.Fatalf("got %d match events for %d new OGs", len(evs), added)
	}
	for _, ev := range evs {
		if ev.Type != "match" {
			t.Errorf("predicate event type %q", ev.Type)
		}
		if ev.OGID < before {
			t.Errorf("event for OG %d, which predates registration (watermark %d)", ev.OGID, before-1)
		}
		if ev.Stream != "Mini" || ev.Clip == "" {
			t.Errorf("event missing provenance: %+v", ev)
		}
	}
	if !eng.Unregister(sub.ID()) {
		t.Error("Unregister returned false for a live subscription")
	}
	select {
	case <-sub.Done():
	default:
		t.Error("Done channel open after Unregister")
	}
	if eng.Unregister(sub.ID()) {
		t.Error("second Unregister returned true")
	}
}

// knnGroundTruth runs the subscription's query one-shot against the
// current database — the membership the engine must converge to.
func knnGroundTruth(t *testing.T, db *core.SharedDB, traj dist.Sequence, k int) map[int]float64 {
	t.Helper()
	res, err := db.QueryComposedCtx(context.Background(), &query.Query{
		Similar: &query.SimilarClause{Trajectory: traj, K: k, Exact: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]float64, len(res.Matches))
	for _, m := range res.Matches {
		want[m.Record.OGID] = m.Distance
	}
	return want
}

// applyMembership folds enter/leave events into the implied result set.
func applyMembership(t *testing.T, evs []Event) map[int]float64 {
	t.Helper()
	got := make(map[int]float64)
	for _, ev := range evs {
		switch ev.Type {
		case "enter":
			if _, ok := got[ev.OGID]; ok {
				t.Fatalf("OG %d entered twice without leaving", ev.OGID)
			}
			got[ev.OGID] = ev.Distance
		case "leave":
			if _, ok := got[ev.OGID]; !ok {
				t.Fatalf("OG %d left without entering", ev.OGID)
			}
			delete(got, ev.OGID)
		default:
			t.Fatalf("k-NN subscription got %q event", ev.Type)
		}
	}
	return got
}

func equalMembership(a, b map[int]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, d := range a {
		if bd, ok := b[id]; !ok || bd != d {
			return false
		}
	}
	return true
}

func TestEngineKNNSeedAndLive(t *testing.T) {
	h := newEngineHarness(t)
	eng := h.svc.Engine()
	traj := testTrajectory()
	const k = 3
	h.ingest(t, 0)
	h.ingest(t, 1)
	eng.Quiesce()

	sub, err := eng.Register(&query.Query{
		Similar: &query.SimilarClause{Trajectory: traj, K: k},
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := drain(t, sub, 0)
	if !equalMembership(applyMembership(t, seed), knnGroundTruth(t, h.db, traj, k)) {
		t.Fatal("seed membership diverges from one-shot query")
	}
	for i, ev := range seed {
		if ev.Type != "enter" {
			t.Fatalf("seed event %d is %q, want enter", i, ev.Type)
		}
		if i > 0 && lessTop(topEntry{ev.OGID, ev.Distance, core.ClipRecord{}},
			topEntry{seed[i-1].OGID, seed[i-1].Distance, core.ClipRecord{}}) {
			t.Fatalf("seed events out of (distance, OGID) order: %+v", seed)
		}
	}

	h.ingest(t, 2)
	eng.Quiesce()
	all := drain(t, sub, 0)
	if !equalMembership(applyMembership(t, all), knnGroundTruth(t, h.db, traj, k)) {
		t.Fatal("live membership diverges from one-shot query")
	}
}

func TestEngineKNNMaintenanceIsExact(t *testing.T) {
	// Over an append-only corpus the k best of S ∪ {x} are the k best of
	// (the k best of S) ∪ {x}, so meeting every committed OG once keeps
	// the set equal to a one-shot query with no re-query behind it.
	h := newEngineHarness(t)
	eng := h.svc.Engine()
	sub, err := eng.Register(&query.Query{
		Similar: &query.SimilarClause{Trajectory: testTrajectory(), K: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.segs {
		h.ingest(t, i)
	}
	eng.Quiesce()
	evs := drain(t, sub, 0)
	net := applyMembership(t, evs)
	if !equalMembership(net, knnGroundTruth(t, h.db, testTrajectory(), 2)) {
		t.Fatal("incrementally maintained membership diverges from ground truth")
	}
	// Each OGID may enter at most once and leave at most once — an OG
	// that reached a subscription twice would violate this.
	seen := map[string]int{}
	for _, ev := range evs {
		seen[ev.Type]++
	}
	if seen["enter"]-seen["leave"] != len(net) {
		t.Fatalf("event ledger does not balance: %+v vs %d members", seen, len(net))
	}
}

func TestEngineKNNNonPrefixSeed(t *testing.T) {
	// A k-NN seed can hold OGs of commits after its watermark: the count
	// is read before the query, and commits C1 and C2 can publish in
	// between. The index serves each query one commit prefix, so a real
	// seed holds C1 whenever it holds C2; the seed built here by hand from
	// segment 0 and C2 alone is the harder case, and covers both. The
	// seed's watermark is the OG count read before either commit, so both
	// deltas still arrive: C1's OGs must be able to enter, and C2's,
	// which the seed already holds, must not enter twice. The engine is
	// handed its deltas directly.
	h := newEngineHarness(t)
	var deltas []core.CommitDelta
	h.db.OnCommitDelta(func(d core.CommitDelta) { deltas = append(deltas, d) })
	for i := range 3 {
		h.ingest(t, i)
	}
	base, c1, c2 := deltas[0], deltas[1], deltas[2]
	if len(c1.Records) == 0 || len(c2.Records) == 0 {
		t.Fatal("need OGs in both racing commits")
	}
	eng := newEngine(h.db, 256)
	t.Cleanup(eng.Close)
	// The query is C1's first OG, at distance 0: a member of any full
	// set, which only C1's delta can deliver.
	traj := c1.Blocks[0].Sequence()
	best := c1.Records[0].OGID
	// k = 2 keeps the set full, so C1's OG must beat the seeded kth
	// member; k = 64 exceeds the corpus, so every C2 OG the seed holds
	// would enter again if evaluate did not skip members.
	for _, k := range []int{2, 64} {
		q := &query.Query{Similar: &query.SimilarClause{Trajectory: traj, K: k}}
		m, err := query.NewMatcher(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		sub := &Subscription{q: q, matcher: m, ring: newRing(256), closed: make(chan struct{})}
		sub.watermark = base.Records[len(base.Records)-1].OGID
		for _, d := range []core.CommitDelta{base, c2} {
			for i, rec := range d.Records {
				sub.topk = append(sub.topk, topEntry{rec.OGID, m.Distance(d.Blocks[i]), rec})
			}
		}
		sortTopk(sub.topk)
		sub.topk = sub.topk[:min(k, len(sub.topk))]
		for _, te := range sub.topk {
			sub.ring.append(matchEvent("enter", te.rec, te.dist))
		}
		eng.index.add(sub)
		eng.applyDelta(c1)
		eng.applyDelta(c2)
		eng.index.remove(sub)

		got := applyMembership(t, drain(t, sub, 0))
		if !equalMembership(got, knnGroundTruth(t, h.db, traj, k)) {
			t.Fatalf("k=%d: membership after a non-prefix seed diverges from one-shot query", k)
		}
		if _, ok := got[best]; !ok {
			t.Fatalf("k=%d: C1's OG %d, at distance 0, never entered", k, best)
		}
	}
}

func TestEngineRangeSubscription(t *testing.T) {
	h := newEngineHarness(t)
	eng := h.svc.Engine()
	sub, err := eng.Register(&query.Query{
		Where:   query.LengthNode{Min: 1},
		Similar: &query.SimilarClause{Trajectory: testTrajectory(), Radius: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.ingest(t, 0)
	eng.Quiesce()
	added := h.db.Stats().OGs
	evs := drain(t, sub, 0)
	if len(evs) != added {
		t.Fatalf("got %d range matches for %d OGs inside an all-covering radius", len(evs), added)
	}
	// The matcher measures each delta OG with its prepared batched kernel;
	// the one-shot range query measures the same OGs through the index.
	// Same metric, so the same bits.
	res, err := h.db.QueryComposedCtx(context.Background(), &query.Query{
		Similar: &query.SimilarClause{Trajectory: testTrajectory(), Radius: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	oneShot := make(map[int]float64, len(res.Matches))
	for _, m := range res.Matches {
		oneShot[m.Record.OGID] = m.Distance
	}
	for _, ev := range evs {
		if ev.Type != "match" || ev.Distance < 0 {
			t.Errorf("range event %+v", ev)
		}
		if want, ok := oneShot[ev.OGID]; !ok || math.Float64bits(ev.Distance) != math.Float64bits(want) {
			t.Errorf("OG %d: standing-query distance %v, one-shot query %v (found %v)", ev.OGID, ev.Distance, want, ok)
		}
	}
	info := sub.Info()
	if info.Kind != "range" || info.Radius != 1e9 {
		t.Errorf("Info = %+v", info)
	}
}

func TestEngineRegisterRejectsAndClose(t *testing.T) {
	h := newEngineHarness(t)
	eng := h.svc.Engine()
	if _, err := eng.Register(&query.Query{}); err == nil {
		t.Error("empty standing query accepted")
	}
	if _, err := eng.Register(&query.Query{Similar: &query.SimilarClause{
		Trajectory: testTrajectory(), K: 2, Mode: query.ModeApprox,
	}}); err == nil {
		t.Error("approx-mode standing query accepted")
	}
	sub, err := eng.Register(&query.Query{Where: query.LengthNode{Min: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Subs(); len(got) != 1 || got[0].ID != sub.ID() || got[0].Kind != "predicate" {
		t.Errorf("Subs = %+v", got)
	}
	h.svc.Close()
	select {
	case <-sub.Done():
	default:
		t.Error("subscription still open after service close")
	}
	if _, err := eng.Register(&query.Query{Where: query.LengthNode{Min: 1}}); err == nil {
		t.Error("Register succeeded on a closed engine")
	}
}
