package feed

import (
	"math"
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/query"
	"strgindex/internal/video"
)

// FuzzSubscriptionRegister enforces the standing-query front door's
// contract on arbitrary DSL documents: whatever the parser accepts either
// registers cleanly — delivering a well-formed subscription whose seeded
// events carry dense sequence numbers — or is rejected with an error;
// registration never panics and never wedges the engine. A registered
// subscription then meets one fixed delta through the engine and through
// the walk-everything reference of TestDispatchMatchesBruteForce, which
// fuzzes the probe-box necessity argument (and the kth-distance bound) over
// arbitrary where trees: an OG the index withholds that the where tree
// would have accepted shows up as a missing event.
func FuzzSubscriptionRegister(f *testing.F) {
	seeds := []string{
		`{"where": {"longer_than": 1}}`,
		`{"where": {"heading": {"dir": "east"}}}`,
		`{"similar": {"trajectory": [[20, 120], [160, 120]], "k": 3}}`,
		`{"similar": {"trajectory": [[0, 0]], "radius": 1e6}}`,
		`{"where": {"speed": {"min": 0.5}}, "similar": {"trajectory": [[50, 50], [100, 100]], "k": 2}}`,
		`{"similar": {"trajectory": [[1, 1]], "k": 2, "mode": "approx"}}`,
		`{"similar": {"trajectory": [[1, 1]], "k": 2, "exact": true}}`,
		`{"where": {"passes_through": {"x0": 100, "y0": 0, "x1": 200, "y1": 240}}}`,
		`{"where": {"and": [{"during": {"from": 0, "to": 120}}, {"speed": {"min": 2.5}}]}}`,
		`{"where": {"and": [{"during": {"from": 9, "to": 3}}, {"longer_than": 1}]}}`,
		`{"where": {"within": {"x0": 0, "y0": 0, "x1": 150, "y1": 150, "from": 1, "to": 9}}, "similar": {"trajectory": [[0, 0]], "radius": 1e6}}`,
		`{"where": {"or": [{"starts_in": {"x0": 0, "y0": 0, "x1": 160, "y1": 240}}, {"not": {"u_turn": true}}]}}`,
		`{"where": {"ends_in": {"x0": 160, "y0": 0, "x1": 320, "y1": 240}}, "similar": {"trajectory": [[20, 120], [160, 120]], "k": 1}}`,
		`{}`,
		`{"where": 7}`,
		`not json`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	p := video.StreamProfile{
		Name: "Mini", Kind: video.KindLab,
		NumObjects: 4, SegmentFrames: 16, ObjectsPerSegment: 2,
	}
	stream, err := video.GenerateStream(p, 3)
	if err != nil {
		f.Fatal(err)
	}
	cfg := shardConfig(2)
	db := core.OpenShared(cfg)
	svc, err := Open(Options{Dir: f.TempDir(), DB: db, STRG: &cfg.STRG})
	if err != nil {
		f.Fatal(err)
	}
	eng := svc.Engine()

	// The fixed delta: segment 1's commit, captured, with its OGIDs lifted
	// past anything the database will hold, so every subscription registered
	// afterwards sees it as new. The OGs behind those IDs are not in the
	// database, which only a reconcile would notice — and a subscription
	// that lives for one delta never reaches one.
	var corpus committed
	var delta core.CommitDelta
	corpus.tap(db, eng, func(d core.CommitDelta) { delta = d })
	for _, seg := range stream.Segments[:2] {
		if _, err := db.IngestSegment("Mini", seg); err != nil {
			f.Fatal(err)
		}
	}
	eng.Quiesce()
	if len(delta.Records) == 0 {
		f.Fatal("the fixed delta is empty")
	}
	delta.Records = append([]core.ClipRecord(nil), delta.Records...)
	for i := range delta.Records {
		delta.Records[i].OGID += 1 << 20
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := query.Parse(data)
		if err != nil {
			return
		}
		sub, err := eng.Register(q)
		if err != nil {
			// Rejected standing queries (approx mode, etc.) must not
			// leave residue behind.
			for _, info := range eng.Subs() {
				if _, ok := eng.Get(info.ID); !ok {
					t.Fatalf("Subs lists %s but Get cannot find it", info.ID)
				}
			}
			return
		}
		if sub.ID() == "" {
			t.Fatal("registered subscription has no ID")
		}
		evs, gapped, _ := sub.EventsSince(0)
		if gapped {
			t.Fatal("fresh subscription reports a gap")
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("seed event %d has seq %d", i, ev.Seq)
			}
			if ev.Type != "enter" {
				t.Fatalf("seed event of type %q", ev.Type)
			}
		}
		// The reference starts from the engine's own seed (how the index
		// breaks exact distance ties at registration is its business, not
		// the dispatch path's) and must agree on everything after it.
		ref := &refSub{q: q, pred: query.Compile(q.Where), watermark: len(corpus.recs) - 1}
		for _, ev := range evs {
			ref.top = append(ref.top, refEvent{"", ev.OGID, math.Float64bits(ev.Distance)})
			ref.emit("enter", ev.OGID, ev.Distance)
		}
		eng.enqueueDelta(delta)
		eng.Quiesce()
		for i, rec := range delta.Records {
			ref.meet(rec, delta.OGs[i], delta.Blocks[i].Sequence())
		}
		ref.check(t, sub)
		if !eng.Unregister(sub.ID()) {
			t.Fatalf("Unregister(%s) failed for a live subscription", sub.ID())
		}
	})
}
