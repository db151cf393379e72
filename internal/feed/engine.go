package feed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/query"
	"strgindex/internal/strg"
)

// Engine evaluates standing queries incrementally. It attaches to the
// database's commit-delta hook: every index version swap hands it exactly
// the OGs that commit added, and a single dispatcher goroutine evaluates
// that delta against only the subscriptions it can match (see subIndex) —
// no rescans, in either direction. The hook runs
// under the database's write lock, so it only enqueues; all evaluation
// (which takes database read locks for seeding and reconciliation)
// happens on the dispatcher, which never holds the queue lock while
// touching the database. Exactly-once delivery rests on OGIDs: they are
// dense and monotone in commit order, so a per-subscription watermark —
// set from the database's OG count at registration, when the
// registration's queue position guarantees every queued delta's OGs are
// already visible to the seeding query — cleanly splits "seen by the
// seed" from "owed by deltas".
type Engine struct {
	db             *core.SharedDB
	metric         dist.Metric
	reconcileEvery int
	ringSize       int

	qmu     sync.Mutex
	cond    *sync.Cond
	queue   []any // core.CommitDelta | *regOp | unregOp, in arrival order
	pending int   // queued plus in-flight work items
	closed  bool
	done    chan struct{}

	smu    sync.Mutex
	subs   map[string]*Subscription
	nextID int

	// index is dispatcher-owned: registrations and unregistrations reach
	// it through the queue, in order with the deltas around them.
	index subIndex
}

// Subscription is one registered standing query.
type Subscription struct {
	id string
	// n is the registration counter id is printed from. Everything that
	// orders subscriptions orders on n: the id string stops sorting
	// numerically at sub-1000000.
	n       int
	q       *query.Query
	matcher *query.Matcher
	ring    ring
	closed  chan struct{}
	once    sync.Once

	// Dispatcher-owned evaluation state.
	watermark int    // highest OGID covered by seed or reconcile
	stamp     uint64 // subIndex.stamp of the last OG this was a candidate for
	topk      []topEntry
	member    map[int]bool // k-NN only: the OGIDs in topk
	sinceRec  int          // deltas since the last reconcile slot
	admitted  bool         // topk changed since the last reconcile
}

// topEntry is one member of a k-NN subscription's current result set,
// kept sorted by (distance, OGID) — the deterministic ranking order.
type topEntry struct {
	ogID int
	dist float64
	rec  core.ClipRecord
}

// SubInfo is a subscription's public summary.
type SubInfo struct {
	ID      string  `json:"id"`
	Kind    string  `json:"kind"` // "predicate", "range" or "knn"
	K       int     `json:"k,omitempty"`
	Radius  float64 `json:"radius,omitempty"`
	LastSeq uint64  `json:"last_seq"`
	Dropped int64   `json:"dropped"`
}

type regOp struct {
	sub  *Subscription
	done chan error
}

type unregOp struct{ sub *Subscription }

func newEngine(db *core.SharedDB, metric dist.Metric, reconcileEvery, ringSize int) *Engine {
	e := &Engine{
		db: db, metric: metric, reconcileEvery: reconcileEvery, ringSize: ringSize,
		done: make(chan struct{}), subs: make(map[string]*Subscription),
		index: newSubIndex(),
	}
	e.cond = sync.NewCond(&e.qmu)
	go e.run()
	return e
}

// enqueueDelta is the database commit hook. It runs under the database
// write lock and must only enqueue.
func (e *Engine) enqueueDelta(d core.CommitDelta) {
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		return
	}
	e.enqueueLocked(d)
	e.qmu.Unlock()
}

func (e *Engine) enqueueLocked(item any) {
	e.queue = append(e.queue, item)
	e.pending++
	deltaQueue.Set(int64(e.pending))
	e.cond.Broadcast()
}

// Register compiles q as a standing query and returns the live
// subscription. A k-NN subscription's initial result set is delivered as
// "enter" events (sequence numbers start at 1); predicate and range
// subscriptions are forward-only — they match OGs committed after
// registration, never history.
func (e *Engine) Register(q *query.Query) (*Subscription, error) {
	m, err := query.NewMatcher(q, e.metric)
	if err != nil {
		return nil, err
	}
	qc := *q
	if q.Similar != nil {
		c := *q.Similar
		c.Trajectory = append(dist.Sequence(nil), q.Similar.Trajectory...)
		qc.Similar = &c
	}
	sub := &Subscription{q: &qc, matcher: m, ring: newRing(e.ringSize), closed: make(chan struct{})}
	if m.K() > 0 {
		sub.member = make(map[int]bool)
	}

	op := &regOp{sub: sub, done: make(chan error, 1)}
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		return nil, errors.New("feed: engine closed")
	}
	// The counter is drawn under the queue lock so registration order is
	// queue order, and the subscription is in the map before the op so
	// Unregister works immediately; the dispatcher meets it only once the
	// op has seeded and indexed it.
	e.smu.Lock()
	e.nextID++
	sub.n = e.nextID
	sub.id = fmt.Sprintf("sub-%06d", sub.n)
	e.subs[sub.id] = sub
	e.smu.Unlock()
	e.enqueueLocked(op)
	e.qmu.Unlock()

	if err := <-op.done; err != nil {
		e.Unregister(sub.id)
		return nil, err
	}
	subsActive.Set(int64(e.subCount()))
	return sub, nil
}

// Unregister removes a subscription and closes its event stream.
func (e *Engine) Unregister(id string) bool {
	e.smu.Lock()
	sub, ok := e.subs[id]
	if ok {
		delete(e.subs, id)
	}
	e.smu.Unlock()
	if !ok {
		return false
	}
	sub.once.Do(func() { close(sub.closed) })
	subsActive.Set(int64(e.subCount()))
	// The dispatcher drops it from the index at this queue position; a
	// closed engine has no dispatcher left to care.
	e.qmu.Lock()
	if !e.closed {
		e.enqueueLocked(unregOp{sub})
	}
	e.qmu.Unlock()
	return true
}

// Get returns the subscription with the given ID.
func (e *Engine) Get(id string) (*Subscription, bool) {
	e.smu.Lock()
	defer e.smu.Unlock()
	sub, ok := e.subs[id]
	return sub, ok
}

// Subs returns every live subscription's summary in registration order.
func (e *Engine) Subs() []SubInfo {
	e.smu.Lock()
	subs := make([]*Subscription, 0, len(e.subs))
	for _, sub := range e.subs {
		subs = append(subs, sub)
	}
	e.smu.Unlock()
	sort.Slice(subs, func(i, j int) bool { return subs[i].n < subs[j].n })
	infos := make([]SubInfo, len(subs))
	for i, sub := range subs {
		infos[i] = sub.Info()
	}
	return infos
}

func (e *Engine) subCount() int {
	e.smu.Lock()
	defer e.smu.Unlock()
	return len(e.subs)
}

// Quiesce blocks until every enqueued delta and registration has been
// fully evaluated — after it returns, events for every commit that
// preceded the call have been appended to their rings (read-your-writes
// for tests and graceful shutdown).
func (e *Engine) Quiesce() {
	e.qmu.Lock()
	for e.pending > 0 && !e.closed {
		e.cond.Wait()
	}
	e.qmu.Unlock()
}

// Close drains the queue, stops the dispatcher and closes every
// subscription's event stream.
func (e *Engine) Close() {
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		return
	}
	e.closed = true
	e.cond.Broadcast()
	e.qmu.Unlock()
	<-e.done
	e.smu.Lock()
	subs := make([]*Subscription, 0, len(e.subs))
	for _, sub := range e.subs {
		subs = append(subs, sub)
	}
	e.smu.Unlock()
	for _, sub := range subs {
		sub.once.Do(func() { close(sub.closed) })
	}
}

func (e *Engine) run() {
	for {
		e.qmu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 && e.closed {
			e.qmu.Unlock()
			close(e.done)
			return
		}
		item := e.queue[0]
		e.queue[0] = nil
		e.queue = e.queue[1:]
		e.qmu.Unlock()

		switch v := item.(type) {
		case core.CommitDelta:
			e.applyDelta(v)
		case *regOp:
			err := e.seed(v.sub)
			if err == nil {
				e.index.add(v.sub)
			}
			v.done <- err
		case unregOp:
			e.index.remove(v.sub)
		}

		e.qmu.Lock()
		e.pending--
		deltaQueue.Set(int64(e.pending))
		e.cond.Broadcast()
		e.qmu.Unlock()
	}
}

// seed runs on the dispatcher at a subscription's queue position: every
// delta already enqueued was committed before this moment (the hook fires
// after the commit lands), so the database's OG count here is a valid
// watermark — the seeding query sees everything at or below it, deltas
// deliver everything above it, and nothing is delivered twice.
func (e *Engine) seed(sub *Subscription) error {
	sub.watermark = e.db.Stats().OGs - 1
	if k := sub.matcher.K(); k > 0 {
		matches, err := e.standingQuery(sub)
		if err != nil {
			return err
		}
		for _, m := range matches {
			sub.topk = append(sub.topk, topEntry{m.Record.OGID, m.Distance, m.Record})
			sub.member[m.Record.OGID] = true
		}
		sortTopk(sub.topk)
		for _, t := range sub.topk {
			sub.ring.append(matchEvent("enter", t.rec, t.dist))
		}
	}
	return nil
}

// standingQuery runs the subscription's full k-NN query against the
// current index — the seed, and the periodic reconciliation ground truth.
func (e *Engine) standingQuery(sub *Subscription) ([]core.Match, error) {
	sq := &query.Query{Where: sub.q.Where, Similar: &query.SimilarClause{
		Trajectory: sub.q.Similar.Trajectory,
		K:          sub.q.Similar.K,
		// The exact all-cluster search; composed (filtered) ranking is
		// always exact already.
		Exact: sub.q.Where == nil,
	}}
	res, err := e.db.QueryComposedCtx(context.Background(), sq)
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// applyDelta meets one commit's OGs with the subscriptions that can match
// them: per OG, the candidates its step boxes find in the subscription
// index plus the always-evaluate list. A subscription's events still
// arrive in OG order within the delta, with any reconcile's corrections
// after them — the order walking every subscription produced.
func (e *Engine) applyDelta(d core.CommitDelta) {
	start := time.Now()
	var candidates, matched int64
	for i, rec := range d.Records {
		og, seq := d.OGs[i], d.Blocks[i]
		// One event per OG, copied per subscription: the clip string is
		// formatted once however many rings it lands in.
		ev := matchEvent("match", rec, 0)
		visit := func(sub *Subscription) {
			if rec.OGID <= sub.watermark {
				return // already covered by seed or reconcile
			}
			candidates++
			if e.evaluate(sub, rec, ev, og, seq) {
				matched++
			}
		}
		e.index.probe(og, visit)
		for _, sub := range e.index.always {
			visit(sub)
		}
	}
	for _, sub := range e.index.always {
		if sub.matcher.K() == 0 {
			continue
		}
		sub.sinceRec++
		if sub.sinceRec >= e.reconcileEvery {
			sub.sinceRec = 0
			// A set that admitted nothing cannot disagree with a full query
			// over an append-only corpus: every OG since was turned away as
			// farther than its kth member, and still is.
			if sub.admitted {
				sub.admitted = false
				e.reconcile(sub)
			}
		}
	}
	dispatchCandidates.Add(candidates)
	dispatchMatched.Add(matched)
	dispatchSeconds.Observe(time.Since(start).Seconds())
}

// evaluate applies one new OG — and its attribute sequence in columnar
// form, which the similarity arms measure — to one subscription, and
// reports whether the where tree accepted it. ev is the OG's "match" event
// at distance 0, to be retyped as the subscription's kind requires.
func (e *Engine) evaluate(sub *Subscription, rec core.ClipRecord, ev Event, og *strg.OG, seq dist.Block) bool {
	if !sub.matcher.Match(og) {
		return false
	}
	switch k := sub.matcher.K(); {
	case k > 0:
		if sub.member[rec.OGID] {
			break
		}
		// Once the set is full the kth distance bounds the DP: an abandoned
		// evaluation is strictly farther than the kth member, which lessTop
		// would have turned away at any OGID, so nothing observable moves.
		ub := math.Inf(1)
		if len(sub.topk) >= k {
			ub = sub.topk[len(sub.topk)-1].dist
		}
		d, abandoned := sub.matcher.DistanceUB(seq, ub)
		if abandoned {
			dispatchAbandoned.Inc()
			break
		}
		cand := topEntry{rec.OGID, d, rec}
		if len(sub.topk) >= k && !lessTop(cand, sub.topk[len(sub.topk)-1]) {
			break // not close enough to enter the result set
		}
		sub.topk = append(sub.topk, cand)
		sortTopk(sub.topk)
		sub.member[rec.OGID] = true
		sub.admitted = true
		if len(sub.topk) > k {
			evicted := sub.topk[len(sub.topk)-1]
			sub.topk = sub.topk[:len(sub.topk)-1]
			delete(sub.member, evicted.ogID)
			sub.ring.append(matchEvent("leave", evicted.rec, evicted.dist))
		}
		ev.Type, ev.Distance = "enter", d
		sub.ring.append(ev)
	case sub.matcher.Radius() > 0:
		if d := sub.matcher.Distance(seq); d <= sub.matcher.Radius() {
			ev.Distance = d
			sub.ring.append(ev)
		}
	default:
		sub.ring.append(ev)
	}
	return true
}

// reconcile re-runs a k-NN subscription's full query and reconciles the
// incrementally maintained result set against it. Incremental maintenance
// is conservative — it only ever inserts new OGs — so after an eviction
// the set can hold a slightly-too-far member that a full query would
// replace; reconciliation emits the corrective enter/leave pairs. The
// watermark advances to the database's current OG count, which the fresh
// query covers, so deltas still queued behind this one skip what the
// query already delivered: exactly-once is preserved across the re-seed.
func (e *Engine) reconcile(sub *Subscription) {
	reconcilesTotal.Inc()
	start := time.Now()
	defer func() { reconcileSeconds.Observe(time.Since(start).Seconds()) }()
	wm := e.db.Stats().OGs - 1
	matches, err := e.standingQuery(sub)
	if err != nil {
		return // transient; the next reconcile retries
	}
	fresh := make([]topEntry, 0, len(matches))
	freshMember := make(map[int]bool, len(matches))
	for _, m := range matches {
		fresh = append(fresh, topEntry{m.Record.OGID, m.Distance, m.Record})
		freshMember[m.Record.OGID] = true
	}
	sortTopk(fresh)

	diffs := 0
	for _, t := range sub.topk {
		if !freshMember[t.ogID] {
			diffs++
			sub.ring.append(matchEvent("leave", t.rec, t.dist))
		}
	}
	for _, t := range fresh {
		if !sub.member[t.ogID] {
			diffs++
			sub.ring.append(matchEvent("enter", t.rec, t.dist))
		}
	}
	reconcileDiffs.Add(int64(diffs))
	sub.topk, sub.member = fresh, freshMember
	if wm > sub.watermark {
		sub.watermark = wm
	}
}

func matchEvent(typ string, rec core.ClipRecord, d float64) Event {
	return Event{
		Type: typ, OGID: rec.OGID, Stream: rec.Stream,
		Clip: rec.Clip.String(), Label: rec.Label, Distance: d,
	}
}

func sortTopk(t []topEntry) {
	sort.Slice(t, func(i, j int) bool { return lessTop(t[i], t[j]) })
}

// lessTop is the result-set order: nearest first, OGID breaking ties —
// deterministic across runs and shard counts.
func lessTop(a, b topEntry) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.ogID < b.ogID
}

// ID returns the subscription identifier.
func (s *Subscription) ID() string { return s.id }

// EventsSince returns buffered events after the given sequence number;
// see ring.eventsSince for the gap contract.
func (s *Subscription) EventsSince(after uint64) ([]Event, bool, uint64) {
	return s.ring.eventsSince(after)
}

// Wait returns a channel closed when the next event arrives.
func (s *Subscription) Wait() <-chan struct{} { return s.ring.wait() }

// Done returns a channel closed when the subscription is unregistered.
func (s *Subscription) Done() <-chan struct{} { return s.closed }

// LastSeq returns the most recent event sequence number (0 if none).
func (s *Subscription) LastSeq() uint64 {
	last, _ := s.ring.cursor()
	return last
}

// Info returns the subscription's public summary; LastSeq and Dropped are
// one consistent reading of the ring.
func (s *Subscription) Info() SubInfo {
	info := SubInfo{ID: s.id, Kind: "predicate"}
	info.LastSeq, info.Dropped = s.ring.cursor()
	switch {
	case s.matcher.K() > 0:
		info.Kind, info.K = "knn", s.matcher.K()
	case s.matcher.Radius() > 0:
		info.Kind, info.Radius = "range", s.matcher.Radius()
	}
	return info
}
