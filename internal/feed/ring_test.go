package feed

import (
	"reflect"
	"testing"
)

func TestRingSequenceAndGap(t *testing.T) {
	r := newRing(4)
	if last, _ := r.cursor(); last != 0 {
		t.Fatalf("fresh ring lastSeq = %d", last)
	}
	for i := 0; i < 10; i++ {
		if seq := r.append(Event{Type: "match", OGID: i}); seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	evs, gapped, missedFrom := r.eventsSince(0)
	if !gapped || missedFrom != 1 {
		t.Errorf("full-history read: gapped=%v missedFrom=%d, want true/1", gapped, missedFrom)
	}
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Errorf("retained window = %+v, want seqs 7..10", evs)
	}
	if _, dropped := r.cursor(); dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}

	evs, gapped, _ = r.eventsSince(8)
	if gapped || len(evs) != 2 || evs[0].Seq != 9 {
		t.Errorf("in-window resume: gapped=%v evs=%+v", gapped, evs)
	}
	evs, gapped, _ = r.eventsSince(10)
	if gapped || len(evs) != 0 {
		t.Errorf("caught-up resume: gapped=%v evs=%+v", gapped, evs)
	}
	// A cursor from the future clamps to the present instead of
	// replaying events the client claims to have seen.
	evs, gapped, _ = r.eventsSince(99)
	if gapped || len(evs) != 0 {
		t.Errorf("future cursor: gapped=%v evs=%+v", gapped, evs)
	}
}

func TestRingWait(t *testing.T) {
	r := newRing(2)
	ch := r.wait()
	select {
	case <-ch:
		t.Fatal("wait channel closed before any append")
	default:
	}
	r.append(Event{Type: "match"})
	select {
	case <-ch:
	default:
		t.Fatal("wait channel not closed by append")
	}
	// The channel armed before a scan wakes for appends after it.
	ch2 := r.wait()
	if ch2 == ch {
		t.Fatal("wait channel not replaced after append")
	}
	// Re-arming without an append in between hands back the same channel,
	// and an append nobody waits for allocates none.
	if r.wait() != ch2 {
		t.Fatal("a second reader got a different channel for the same append")
	}
	r.append(Event{Type: "match"})
	r.append(Event{Type: "match"})
	if r.notify != nil {
		t.Fatal("an append with no armed reader left a channel behind")
	}
	select {
	case <-ch2:
	default:
		t.Fatal("armed channel not closed across the growth boundary")
	}
}

// presizedRing is the ring as it was before buffers grew on demand: the
// whole buffer allocated up front, so grow never runs.
func presizedRing(limit int) *ring {
	r := newRing(limit)
	r.buf = make([]Event, limit)
	return &r
}

// TestRingGrowthIsInvisible feeds a ring that grows on demand and one that
// was allocated at its limit the same events and holds every reader-visible
// answer equal after every append — through each doubling, at the limit,
// and well into drop-oldest: sequence numbers, the retained window from
// every cursor, gapped/missedFrom, the dropped count, and wake-ups.
func TestRingGrowthIsInvisible(t *testing.T) {
	for _, limit := range []int{1, 3, 4, 5, 8, 37, 256} {
		grown, sized := newRing(limit), presizedRing(limit)
		if grown.buf != nil || grown.notify != nil {
			t.Fatalf("limit %d: a fresh ring already owns a buffer or a channel", limit)
		}
		boundaries := 0
		for i := 0; i < 2*limit+9; i++ {
			wakeG, wakeS := grown.wait(), sized.wait()
			before := len(grown.buf)
			ev := Event{Type: "match", OGID: i, Clip: "c"}
			if g, s := grown.append(ev), sized.append(ev); g != s || g != uint64(i+1) {
				t.Fatalf("limit %d append %d: seq %d vs pre-sized %d", limit, i, g, s)
			}
			if len(grown.buf) != before {
				boundaries++
			}
			if len(grown.buf) > limit {
				t.Fatalf("limit %d: buffer grew to %d", limit, len(grown.buf))
			}
			for _, ch := range []<-chan struct{}{wakeG, wakeS} {
				select {
				case <-ch:
				default:
					t.Fatalf("limit %d append %d: an armed reader was not woken", limit, i)
				}
			}
			gl, gd := grown.cursor()
			sl, sd := sized.cursor()
			if gl != sl || gd != sd {
				t.Fatalf("limit %d append %d: cursor (%d, %d) vs pre-sized (%d, %d)", limit, i, gl, gd, sl, sd)
			}
			if wantDropped := int64(max(0, i+1-limit)); gd != wantDropped {
				t.Fatalf("limit %d append %d: dropped = %d, want %d", limit, i, gd, wantDropped)
			}
			// Every cursor for the small rings; for the large ones the
			// edges of the retained window plus a stride through it.
			step := uint64(max(1, limit/8))
			lowest := gl - uint64(min(i+1, limit))
			for after := uint64(0); after <= gl+1; after++ {
				if edge := after+1 >= lowest && after <= lowest+1 || after+1 >= gl; !edge && after%step != 0 {
					continue
				}
				ge, gg, gm := grown.eventsSince(after)
				se, sg, sm := sized.eventsSince(after)
				if !reflect.DeepEqual(ge, se) || gg != sg || gm != sm {
					t.Fatalf("limit %d append %d, cursor %d: (%+v, %v, %d) vs pre-sized (%+v, %v, %d)",
						limit, i, after, ge, gg, gm, se, sg, sm)
				}
				for j, ev := range ge {
					if want := max(after, gl-uint64(len(ge))) + uint64(j) + 1; ev.Seq != want {
						t.Fatalf("limit %d append %d, cursor %d: event %d has seq %d, want %d", limit, i, after, j, ev.Seq, want)
					}
				}
			}
		}
		if limit > ringMinBuf && boundaries < 2 {
			t.Errorf("limit %d: only %d growth steps; the buffer was not grown on demand", limit, boundaries)
		}
		if len(grown.buf) != limit {
			t.Errorf("limit %d: a full ring holds a %d-slot buffer", limit, len(grown.buf))
		}
	}
}
