package feed

import "sync"

// Event is one standing-query notification. Seq numbers are per
// subscription, dense and monotone from 1 — the delivery order proof a
// subscriber checks, and the resume cursor SSE's Last-Event-ID carries.
type Event struct {
	Seq uint64 `json:"seq"`
	// Type is "match" (predicate or range subscription), or "enter"/"leave"
	// (k-NN result-set membership change). The initial k-NN result set at
	// registration arrives as "enter" events.
	Type   string `json:"type"`
	OGID   int    `json:"og_id"`
	Stream string `json:"stream"`
	Clip   string `json:"clip"`
	Label  string `json:"label,omitempty"`
	// Distance is set for range and k-NN subscriptions.
	Distance float64 `json:"distance,omitempty"`
}

// ring is a bounded drop-oldest event buffer. Appends never block — a
// stalled consumer loses the oldest undelivered events (counted, and
// surfaced to it as an SSE gap event), never the feed's ingest latency.
//
// A ring costs what it holds: a subscription that never matched owns no
// buffer and no channel. buf appears on the first append and doubles until
// it reaches limit; only a ring at its limit ever evicts, so growth never
// changes what a reader sees.
type ring struct {
	mu  sync.Mutex
	buf []Event
	// limit caps len(buf): the configured ring size.
	limit int
	// start indexes the oldest retained event; n counts retained.
	start, n int
	// next is the sequence number the next append assigns (first is 1).
	next    uint64
	dropped int64
	// notify, when a reader has armed it, is closed by the next append;
	// readers arm it before scanning so no append can slip between scan
	// and wait.
	notify chan struct{}
}

func newRing(limit int) ring {
	if limit <= 0 {
		limit = 1
	}
	return ring{limit: limit, next: 1}
}

// ringMinBuf is the first allocation: four events, 352 bytes.
const ringMinBuf = 4

// grow doubles a full buffer that is still under the limit. Nothing has
// been evicted yet, so the events sit at buf[0:n] and copy straight over.
func (r *ring) grow() {
	size := min(max(2*len(r.buf), ringMinBuf), r.limit)
	buf := make([]Event, size)
	copy(buf, r.buf[:r.n])
	r.buf = buf
}

// append stamps the event's sequence number, stores it (evicting the
// oldest if the ring is at its limit) and wakes waiting readers.
func (r *ring) append(ev Event) uint64 {
	r.mu.Lock()
	ev.Seq = r.next
	r.next++
	if r.n == len(r.buf) {
		if len(r.buf) < r.limit {
			r.grow()
		} else {
			r.start = (r.start + 1) % len(r.buf)
			r.n--
			r.dropped++
			eventsDropped.Inc()
		}
	}
	r.buf[(r.start+r.n)%len(r.buf)] = ev
	r.n++
	if r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
	r.mu.Unlock()
	eventsTotal.Inc()
	return ev.Seq
}

// eventsSince returns the retained events with Seq > after in order. When
// the ring has already evicted events the cursor missed, gapped is true and
// missedFrom is the first lost sequence number — the reader owes its
// consumer an explicit gap notice before the returned events.
func (r *ring) eventsSince(after uint64) (evs []Event, gapped bool, missedFrom uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if after >= r.next {
		// A cursor from the future (stale ring, client bug): clamp to the
		// present rather than replaying history it claims to have seen.
		after = r.next - 1
	}
	lowest := r.next - uint64(r.n) // oldest retained (r.next when empty)
	if after+1 < lowest {
		gapped = true
		missedFrom = after + 1
		after = lowest - 1
	}
	for i := 0; i < r.n; i++ {
		ev := r.buf[(r.start+i)%len(r.buf)]
		if ev.Seq > after {
			evs = append(evs, ev)
		}
	}
	return evs, gapped, missedFrom
}

// wait returns a channel closed by the next append.
func (r *ring) wait() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.notify == nil {
		r.notify = make(chan struct{})
	}
	return r.notify
}

// cursor returns, in one reading, the most recently assigned sequence
// number (0 if none) and how many events the ring has evicted undelivered.
func (r *ring) cursor() (lastSeq uint64, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - 1, r.dropped
}
