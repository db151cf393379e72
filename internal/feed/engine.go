package feed

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/query"
	"strgindex/internal/strg"
)

// Engine evaluates standing queries incrementally. It attaches to the
// database's commit-delta hook: every index version swap hands it exactly
// the OGs that commit added, and a single dispatcher goroutine evaluates
// each subscription against only that delta — no rescans. The hook runs
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
	queue   []any // core.CommitDelta | *regOp, in arrival order
	pending int   // queued plus in-flight work items
	closed  bool
	done    chan struct{}

	smu    sync.Mutex
	subs   map[string]*Subscription
	nextID int
}

// Subscription is one registered standing query.
type Subscription struct {
	id      string
	q       *query.Query
	matcher *query.Matcher
	ring    *ring
	closed  chan struct{}
	once    sync.Once

	// Dispatcher-owned evaluation state.
	seeded    bool
	watermark int // highest OGID covered by seed or reconcile
	topk      []topEntry
	member    map[int]bool
	sinceRec  int
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

func newEngine(db *core.SharedDB, metric dist.Metric, reconcileEvery, ringSize int) *Engine {
	e := &Engine{
		db: db, metric: metric, reconcileEvery: reconcileEvery, ringSize: ringSize,
		done: make(chan struct{}), subs: make(map[string]*Subscription),
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
	e.queue = append(e.queue, d)
	e.pending++
	deltaQueue.Set(int64(e.pending))
	e.cond.Broadcast()
	e.qmu.Unlock()
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
	sub := &Subscription{
		q: &qc, matcher: m, ring: newRing(e.ringSize),
		closed: make(chan struct{}), member: make(map[int]bool),
	}
	e.smu.Lock()
	e.nextID++
	sub.id = fmt.Sprintf("sub-%06d", e.nextID)
	e.smu.Unlock()

	op := &regOp{sub: sub, done: make(chan error, 1)}
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		return nil, errors.New("feed: engine closed")
	}
	// In the map before the op so Unregister works immediately; the
	// dispatcher skips unseeded subscriptions until the op runs.
	e.smu.Lock()
	e.subs[sub.id] = sub
	e.smu.Unlock()
	e.queue = append(e.queue, op)
	e.pending++
	deltaQueue.Set(int64(e.pending))
	e.cond.Broadcast()
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
	return true
}

// Get returns the subscription with the given ID.
func (e *Engine) Get(id string) (*Subscription, bool) {
	e.smu.Lock()
	defer e.smu.Unlock()
	sub, ok := e.subs[id]
	return sub, ok
}

// Subs returns every live subscription's summary, sorted by ID.
func (e *Engine) Subs() []SubInfo {
	e.smu.Lock()
	subs := make([]*Subscription, 0, len(e.subs))
	for _, sub := range e.subs {
		subs = append(subs, sub)
	}
	e.smu.Unlock()
	infos := make([]SubInfo, len(subs))
	for i, sub := range subs {
		infos[i] = sub.Info()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
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
			v.done <- e.seed(v.sub)
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
	sub.seeded = true
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

// applyDelta evaluates one commit's OGs against every seeded
// subscription.
func (e *Engine) applyDelta(d core.CommitDelta) {
	e.smu.Lock()
	subs := make([]*Subscription, 0, len(e.subs))
	for _, sub := range e.subs {
		subs = append(subs, sub)
	}
	e.smu.Unlock()
	sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })

	for _, sub := range subs {
		if !sub.seeded {
			continue
		}
		for i, rec := range d.Records {
			if rec.OGID <= sub.watermark {
				continue // already covered by seed or reconcile
			}
			e.evaluate(sub, rec, d.OGs[i], d.Blocks[i])
		}
		if sub.matcher.K() > 0 {
			sub.sinceRec++
			if sub.sinceRec >= e.reconcileEvery {
				sub.sinceRec = 0
				e.reconcile(sub)
			}
		}
	}
}

// evaluate applies one new OG — and its attribute sequence in columnar
// form, which the similarity arms measure — to one subscription.
func (e *Engine) evaluate(sub *Subscription, rec core.ClipRecord, og *strg.OG, seq dist.Block) {
	if !sub.matcher.Match(og) {
		return
	}
	switch {
	case sub.matcher.K() > 0:
		if sub.member[rec.OGID] {
			return
		}
		d := sub.matcher.Distance(seq)
		k := sub.matcher.K()
		cand := topEntry{rec.OGID, d, rec}
		if len(sub.topk) >= k && !lessTop(cand, sub.topk[len(sub.topk)-1]) {
			return // not close enough to enter the result set
		}
		sub.topk = append(sub.topk, cand)
		sortTopk(sub.topk)
		sub.member[rec.OGID] = true
		if len(sub.topk) > k {
			evicted := sub.topk[len(sub.topk)-1]
			sub.topk = sub.topk[:len(sub.topk)-1]
			delete(sub.member, evicted.ogID)
			sub.ring.append(matchEvent("leave", evicted.rec, evicted.dist))
		}
		sub.ring.append(matchEvent("enter", rec, d))
	case sub.matcher.Radius() > 0:
		if d := sub.matcher.Distance(seq); d <= sub.matcher.Radius() {
			sub.ring.append(matchEvent("match", rec, d))
		}
	default:
		sub.ring.append(matchEvent("match", rec, 0))
	}
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
func (s *Subscription) LastSeq() uint64 { return s.ring.lastSeq() }

// Dropped returns how many events were evicted before delivery.
func (s *Subscription) Dropped() int64 { return s.ring.droppedCount() }

// Info returns the subscription's public summary.
func (s *Subscription) Info() SubInfo {
	info := SubInfo{ID: s.id, Kind: "predicate",
		LastSeq: s.ring.lastSeq(), Dropped: s.ring.droppedCount()}
	switch {
	case s.matcher.K() > 0:
		info.Kind, info.K = "knn", s.matcher.K()
	case s.matcher.Radius() > 0:
		info.Kind, info.Radius = "range", s.matcher.Radius()
	}
	return info
}
