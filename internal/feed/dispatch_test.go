package feed

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/query"
	"strgindex/internal/strg"
	"strgindex/internal/video"
)

// refSub is the walk-everything dispatch, kept as the oracle: one
// subscription's state under a reference that meets every OG of every
// delta, prunes nothing and runs every distance to completion with the
// per-pair kernel. The engine's index, probe boxes, candidate dedup and
// kth-distance bound must be invisible next to it.
type refSub struct {
	q         *query.Query
	pred      query.Predicate
	watermark int
	top       []refEvent // k-NN result set, (distance, OGID) order
	events    []refEvent
}

type refEvent struct {
	typ  string
	ogID int
	dist uint64 // math.Float64bits of the event's distance
}

func (r *refSub) emit(typ string, ogID int, d float64) {
	r.events = append(r.events, refEvent{typ, ogID, math.Float64bits(d)})
}

// meet evaluates one committed OG; seeding reuses it on history.
func (r *refSub) meet(rec core.ClipRecord, og *strg.OG, seq dist.Sequence) {
	if rec.OGID <= r.watermark || !r.pred(og) {
		return
	}
	sim := r.q.Similar
	if sim == nil {
		r.emit("match", rec.OGID, 0)
		return
	}
	d := dist.EGEDMZero(sim.Trajectory, seq)
	if sim.Radius > 0 {
		if d <= sim.Radius {
			r.emit("match", rec.OGID, d)
		}
		return
	}
	r.top = append(r.top, refEvent{"", rec.OGID, math.Float64bits(d)})
	sort.Slice(r.top, func(i, j int) bool {
		di, dj := math.Float64frombits(r.top[i].dist), math.Float64frombits(r.top[j].dist)
		return di < dj || (di == dj && r.top[i].ogID < r.top[j].ogID)
	})
	if len(r.top) > sim.K {
		out := r.top[sim.K]
		r.top = r.top[:sim.K]
		if out.ogID == rec.OGID {
			return
		}
		r.emit("leave", out.ogID, math.Float64frombits(out.dist))
	}
	r.emit("enter", rec.OGID, d)
}

// check compares a subscription's whole buffered stream with the
// reference's: type, OGID, distance bits, and dense sequence numbers.
func (r *refSub) check(t testing.TB, sub *Subscription) {
	t.Helper()
	evs, gapped, _ := sub.EventsSince(0)
	if gapped {
		t.Fatalf("%s: gap despite an oversized ring", sub.ID())
	}
	if len(evs) != len(r.events) {
		t.Fatalf("%s (%+v): engine delivered %d events, reference %d\nengine: %+v\nreference: %+v",
			sub.ID(), r.q, len(evs), len(r.events), evs, r.events)
	}
	for i, ev := range evs {
		want := r.events[i]
		if ev.Seq != uint64(i+1) || ev.Type != want.typ || ev.OGID != want.ogID || math.Float64bits(ev.Distance) != want.dist {
			t.Fatalf("%s (%+v) event %d: engine %+v, reference %+v", sub.ID(), r.q, i, ev, want)
		}
	}
}

// randWhere draws a where tree over the whole FuzzParseQuery grammar:
// every predicate leaf, And/Or/Not, within/during (inverted windows
// included).
func randWhere(rng *rand.Rand, depth int) query.Node {
	rect := func() geom.Rect {
		x, y := rng.Float64()*300, rng.Float64()*220
		return geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+10+rng.Float64()*120, y+10+rng.Float64()*120)}
	}
	window := func() (int, int) {
		from := rng.Intn(24)
		if rng.Intn(8) == 0 {
			return from, from - 1 - rng.Intn(6) // inverted
		}
		return from, from + rng.Intn(12)
	}
	if depth < 3 && rng.Intn(3) == 0 {
		kids := make([]query.Node, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randWhere(rng, depth+1)
		}
		switch rng.Intn(4) {
		case 0:
			return query.OrNode{Children: kids}
		case 1:
			return query.NotNode{Child: kids[0]}
		}
		return query.AndNode{Children: kids}
	}
	switch rng.Intn(10) {
	case 0:
		return query.SpatialNode{Kind: query.SpatialStarts, Rect: rect()}
	case 1:
		return query.SpatialNode{Kind: query.SpatialEnds, Rect: rect()}
	case 2:
		from, to := window()
		return query.WithinNode{Rect: rect(), From: from, To: to}
	case 3:
		from, to := window()
		return query.DuringNode{From: from, To: to}
	case 4:
		return query.SpeedNode{Lo: rng.Float64() * 4, Hi: 4 + rng.Float64()*20}
	case 5:
		return query.HeadingNode{Angle: rng.Float64() * 2 * math.Pi, Tol: 0.3 + rng.Float64()}
	case 6:
		return query.UTurnNode{MinTurn: 0.5 + rng.Float64()*2}
	case 7:
		return query.LengthNode{Min: rng.Intn(12)}
	case 8:
		return query.AreaNode{Lo: rng.Float64() * 200, Hi: 200 + rng.Float64()*2000}
	}
	return query.SpatialNode{Kind: query.SpatialPasses, Rect: rect()}
}

// randStanding draws a standing query: predicate only, or k-NN / range
// with and without a where tree.
func randStanding(rng *rand.Rand) *query.Query {
	q := &query.Query{}
	// Half predicate-only (the population the R-tree holds), the rest split
	// over k-NN and range, each with and without a where tree.
	shape := max(0, rng.Intn(8)-3)
	if shape != 1 && shape != 3 {
		q.Where = randWhere(rng, 0)
	}
	if shape >= 1 {
		traj := make(dist.Sequence, 2+rng.Intn(5))
		x, y := rng.Float64()*320, rng.Float64()*240
		for i := range traj {
			traj[i] = dist.Vec{x, y}
			x, y = x+rng.Float64()*80-40, y+rng.Float64()*80-40
		}
		q.Similar = &query.SimilarClause{Trajectory: traj}
		if shape <= 2 {
			q.Similar.K = 1 + rng.Intn(4)
		} else {
			q.Similar.Radius = 50 + rng.Float64()*600
		}
	}
	return q
}

// committed is everything the database has committed, in OGID order, as
// the reference's corpus.
type committed struct {
	recs []core.ClipRecord
	ogs  []*strg.OG
	seqs []dist.Sequence
}

// tap interposes on the engine's commit hook so the test sees every delta
// the engine does.
func (c *committed) tap(db *core.SharedDB, eng *Engine, onDelta func(core.CommitDelta)) {
	db.OnCommitDelta(func(d core.CommitDelta) {
		for i, rec := range d.Records {
			c.recs = append(c.recs, rec)
			c.ogs = append(c.ogs, d.OGs[i])
			c.seqs = append(c.seqs, d.Blocks[i].Sequence())
		}
		onDelta(d)
		eng.enqueueDelta(d)
	})
}

// newRef registers the reference twin of a subscription: history seeds a
// k-NN result set, then the watermark closes it off.
func (c *committed) newRef(q *query.Query) *refSub {
	r := &refSub{q: q, pred: query.Compile(q.Where), watermark: -1}
	if q.Similar != nil && q.Similar.K > 0 {
		for i, rec := range c.recs {
			r.meet(rec, c.ogs[i], c.seqs[i])
		}
		r.events = r.events[:0]
		for _, e := range r.top {
			r.emit("enter", e.ogID, math.Float64frombits(e.dist))
		}
	}
	r.watermark = len(c.recs) - 1
	return r
}

// TestDispatchMatchesBruteForce is the differential test of the dispatch
// path: random standing queries over the whole DSL grammar, registered and
// unregistered at random between random commits, each held event for event
// — type, OGID, distance bits, sequence number — to the walk-everything
// reference. Commits do not wait for the dispatcher: a subscription's
// stream may not depend on how far the queue has drained.
func TestDispatchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var segs []*video.Segment
	for seed, kind := range []video.StreamKind{video.KindLab, video.KindTraffic, video.KindLab} {
		stream, err := video.GenerateStream(video.StreamProfile{
			Name: fmt.Sprintf("S%d", seed), Kind: kind,
			NumObjects: 24, SegmentFrames: 24, ObjectsPerSegment: 3,
		}, int64(40+seed))
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, stream.Segments...)
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

	cfg := core.DefaultConfig()
	db := core.OpenShared(cfg)
	svc, err := Open(Options{Dir: t.TempDir(), DB: db, STRG: &cfg.STRG, RingSize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	eng := svc.Engine()
	var corpus committed
	type pair struct {
		sub *Subscription
		ref *refSub
	}
	var live []pair
	corpus.tap(db, eng, func(d core.CommitDelta) {
		for _, p := range live {
			for i, rec := range d.Records {
				p.ref.meet(rec, d.OGs[i], d.Blocks[i].Sequence())
			}
		}
	})

	register := func() {
		q := randStanding(rng)
		sub, err := eng.Register(q)
		if err != nil {
			t.Fatalf("Register(%+v): %v", q, err)
		}
		live = append(live, pair{sub, corpus.newRef(q)})
	}
	var kinds [3]int
	events, treed, knnTreed := 0, 0, 0
	retire := func(i int) {
		p := live[i]
		eng.Quiesce()
		p.ref.check(t, p.sub)
		events += len(p.ref.events)
		if _, ok := treeBox(p.sub); ok {
			treed++
			if p.sub.matcher.K() > 0 {
				knnTreed++
			}
		}
		switch {
		case p.sub.matcher.K() > 0:
			kinds[0]++
		case p.sub.matcher.Radius() > 0:
			kinds[1]++
		default:
			kinds[2]++
		}
		if !eng.Unregister(p.sub.ID()) {
			t.Fatalf("Unregister(%s) failed", p.sub.ID())
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}

	for i := 0; i < 120; i++ {
		register()
	}
	for _, seg := range segs {
		for n := rng.Intn(12); n > 0; n-- {
			if len(live) > 0 && rng.Intn(2) == 0 {
				retire(rng.Intn(len(live)))
			} else {
				register()
			}
		}
		if _, err := db.IngestSegment("mix", seg); err != nil {
			t.Fatal(err)
		}
	}
	for len(live) > 0 {
		retire(len(live) - 1)
	}
	eng.Quiesce()
	if n := eng.index.tree.Len() + len(eng.index.always); n != 0 {
		t.Errorf("%d subscriptions still indexed after every one was unregistered", n)
	}
	if err := eng.index.tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
	t.Logf("%d OGs in %d deltas; %d k-NN, %d range, %d predicate subscriptions, %d of them R-tree indexed (%d k-NN); %d events compared",
		len(corpus.recs), len(segs), kinds[0], kinds[1], kinds[2], treed, knnTreed, events)
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 || treed < 50 || knnTreed == 0 || events < 1000 {
		t.Error("the mix is too thin to mean anything")
	}
}

// TestSubscriptionOrderPastOneMillion: ids are zero-padded to six digits,
// so past 999 999 the string order and the registration order part ways.
// Everything ordered — Subs and the always-evaluate list — must follow the
// counter.
func TestSubscriptionOrderPastOneMillion(t *testing.T) {
	h := newEngineHarness(t)
	eng := h.svc.Engine()
	eng.smu.Lock()
	eng.nextID = 999997
	eng.smu.Unlock()
	want := []string{"sub-999998", "sub-999999", "sub-1000000", "sub-1000001"}
	for range want {
		if _, err := eng.Register(&query.Query{Where: query.LengthNode{Min: 0}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, info := range eng.Subs() {
		if info.ID != want[i] {
			t.Errorf("Subs()[%d] = %s, want %s", i, info.ID, want[i])
		}
	}
	eng.Quiesce()
	for i, sub := range eng.index.always {
		if sub.ID() != want[i] {
			t.Errorf("always[%d] = %s, want %s", i, sub.ID(), want[i])
		}
	}
	// Removal from the middle finds its entry by counter, not by string.
	eng.Unregister("sub-1000000")
	eng.Quiesce()
	if got := len(eng.index.always); got != 3 || eng.index.always[2].ID() != "sub-1000001" {
		t.Errorf("after unregistering sub-1000000 the list holds %d entries ending %s", got, eng.index.always[got-1].ID())
	}
}

// TestIdleSubscriptionFootprint: a registered subscription that has never
// matched owns no event buffer and no wake-up channel — a couple of
// hundred bytes of compiled query and an R-tree entry.
func TestIdleSubscriptionFootprint(t *testing.T) {
	h := newEngineHarness(t)
	eng := h.svc.Engine()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n = 10000
	before := heap()
	for i := 0; i < n; i++ {
		// Off the 320×240 field: nothing ingested below can match.
		x, y := 1000+float64(i%100)*40, 1000+float64(i/100)*40
		if _, err := eng.Register(&query.Query{Where: query.SpatialNode{Kind: query.SpatialPasses,
			Rect: geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+30, y+30)}}}); err != nil {
			t.Fatal(err)
		}
	}
	h.ingest(t, 0)
	eng.Quiesce()
	perSub := float64(heap()-before) / n
	t.Logf("%.0f bytes of live heap per idle subscription", perSub)
	if perSub > 2048 {
		t.Errorf("an idle subscription costs %.0f bytes, want <= 2048", perSub)
	}
	for _, info := range eng.Subs() {
		if info.LastSeq != 0 {
			t.Fatalf("%s matched; the footprint above is not an idle one", info.ID)
		}
	}
}
