package feed

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/query"
	"strgindex/internal/video"
)

// feedSoakDuration returns how long the storm runs: STRG_SOAK_MS in the
// environment overrides the short default (`make chaos` stretches
// it).
func feedSoakDuration(t *testing.T) time.Duration {
	if v := os.Getenv("STRG_SOAK_MS"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			t.Fatalf("bad STRG_SOAK_MS=%q", v)
		}
		return time.Duration(ms) * time.Millisecond
	}
	return 1500 * time.Millisecond
}

// TestFeedSoak storms one service with concurrent feed writers,
// subscription churn and event readers, under the invariants the live
// layer promises: per-subscription sequence numbers are dense and
// monotone (the ring is sized so nothing drops), a feed's committed
// epochs are immediately visible in the database (read-your-writes), and
// the engine drains to agreement with a one-shot query at the end — both
// a k-NN subscription seeded before the storm and maintained through it,
// and one seeded after. Run
// with -race (make chaos) to make the memory model part of the
// assertion.
func TestFeedSoak(t *testing.T) {
	frames, meta := feedFrames(t, 8, 17)
	cfg := core.DefaultConfig()
	db := core.OpenShared(cfg)
	svc, err := Open(Options{
		Dir: t.TempDir(), DB: db, STRG: &cfg.STRG,
		MinEpochFrames: 10, MaxEpochFrames: 32,
		RingSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := svc.Engine()

	stop := make(chan struct{})
	time.AfterFunc(feedSoakDuration(t), func() { close(stop) })
	var wg sync.WaitGroup

	// Feed writers: each owns one feed and streams the frame corpus
	// cyclically, re-indexing so the feed never ends. After every flush
	// the writer asserts read-your-writes: the committed epoch count is
	// already visible through the database, not eventually.
	for w := 0; w < 2; w++ {
		id := fmt.Sprintf("cam-%d", w)
		f, err := svc.Open(id, meta)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			const batch = 5
			next := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf := make([]video.Frame, batch)
				for i := range buf {
					buf[i] = frames[(next+i)%len(frames)]
					buf[i].Index = next + i
				}
				res, err := f.Append(buf)
				if err != nil {
					t.Errorf("%s append at %d: %v", id, next, err)
					return
				}
				next = res.NextFrame
				if res.Flushed {
					if got, want := db.SegmentsIn(id), f.State().Epoch; got != want {
						t.Errorf("%s: committed epoch not readable: SegmentsIn=%d epoch=%d", id, got, want)
						return
					}
				}
			}
		}()
	}

	// Long-lived subscribers: one per query shape, each polling with a
	// cursor and asserting dense monotone sequence numbers.
	queries := []*query.Query{
		{Where: query.LengthNode{Min: 1}},
		{Similar: &query.SimilarClause{Trajectory: testTrajectory(), K: 3}},
		{Similar: &query.SimilarClause{Trajectory: testTrajectory(), Radius: 1e9}},
	}
	var liveKNN *Subscription
	for qi, q := range queries {
		sub, err := eng.Register(q)
		if err != nil {
			t.Fatal(err)
		}
		if sub.matcher.K() > 0 {
			liveKNN = sub
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			for {
				wake := sub.Wait() // armed before the scan: no missed wakeups
				evs, gapped, _ := sub.EventsSince(cursor)
				if gapped {
					t.Errorf("subscriber %d: gap despite an oversized ring", qi)
					return
				}
				for _, ev := range evs {
					if ev.Seq != cursor+1 {
						t.Errorf("subscriber %d: seq %d after %d", qi, ev.Seq, cursor)
						return
					}
					cursor = ev.Seq
				}
				select {
				case <-stop:
					return
				case <-wake:
				case <-time.After(50 * time.Millisecond):
				}
			}
		}()
	}

	// Subscription churn: register/deliver/unregister in a loop while
	// commits race past.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sub, err := eng.Register(&query.Query{
				Similar: &query.SimilarClause{Trajectory: testTrajectory(), K: 2},
			})
			if err != nil {
				t.Errorf("churn register: %v", err)
				return
			}
			evs, gapped, _ := sub.EventsSince(0)
			if gapped {
				t.Error("churn: fresh subscription gapped")
				return
			}
			for i, ev := range evs {
				if ev.Seq != uint64(i+1) {
					t.Errorf("churn: seed seq %d at position %d", ev.Seq, i)
					return
				}
			}
			if !eng.Unregister(sub.ID()) {
				t.Error("churn: unregister failed")
				return
			}
		}
	}()

	wg.Wait()
	eng.Quiesce()

	// Drained, a k-NN subscription's event ledger must equal a one-shot
	// query of the final database: the one maintained delta by delta
	// through the storm, and a fresh one.
	evs, gapped, _ := liveKNN.EventsSince(0)
	if gapped {
		t.Fatal("long-lived k-NN subscription gapped despite an oversized ring")
	}
	if !equalMembership(applyMembership(t, evs), knnGroundTruth(t, db, testTrajectory(), 3)) {
		t.Error("maintained k-NN membership diverges from one-shot query")
	}
	knnSub, err := eng.Register(&query.Query{
		Similar: &query.SimilarClause{Trajectory: testTrajectory(), K: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	evs, _, _ = knnSub.EventsSince(0)
	if !equalMembership(applyMembership(t, evs), knnGroundTruth(t, db, testTrajectory(), 3)) {
		t.Error("post-storm k-NN seed diverges from one-shot query")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}
