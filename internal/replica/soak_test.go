package replica_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strgindex/internal/query"
	"strgindex/internal/server"

	"net/http/httptest"
)

// TestReplicaSoak tails a primary under continuous ingest while readers
// hammer the replica, and checks the two live invariants the design
// demands: the applied version never moves backwards, and whenever the
// replica is observed at a stable version its answers are byte-identical
// to a database that ingested exactly that prefix. Run under -race this
// also shakes out apply/read synchronization bugs.
func TestReplicaSoak(t *testing.T) {
	cfg := testCfg(4)
	stream := miniStream(t, 28, 103)
	n := len(stream.Segments)
	sigs := refSigs(t, cfg, stream.Segments)

	pdb := startPrimary(t, t.TempDir(), 4)
	rep := openReplicaAt(t, pdb.ts.URL, t.TempDir(), 4, nil)
	defer rep.Close()
	rts := httptest.NewServer(server.NewShared(rep.DB(), server.Options{Replica: rep, Logger: discardLog()}))
	defer rts.Close()
	stop := runReplica(rep)
	defer stop()

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Ingest trickles in so the replica is observed at many versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, seg := range stream.Segments {
			if _, err := pdb.db.IngestSegment("Mini", seg); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Readers: queries on the replica must always answer, never block on
	// apply, and return internally consistent results.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				traj := sigTrajs[worker%len(sigTrajs)]
				ms, _, err := search(rep.DB(), query.SimilarClause{Trajectory: traj, K: 5})
				if err != nil {
					t.Errorf("k-NN under apply: %v", err)
					return
				}
				for j := 1; j < len(ms); j++ {
					if ms[j].Distance < ms[j-1].Distance {
						t.Errorf("replica k-NN out of order under concurrent apply")
						return
					}
				}
				if _, _, err := search(rep.DB(), query.SimilarClause{Trajectory: traj, K: 5, Exact: true}); err != nil {
					t.Errorf("exact query under apply: %v", err)
					return
				}
			}
		}(i)
	}

	// Monitor: the applied version is monotone — position and segment
	// count never regress.
	wg.Add(1)
	go func() {
		defer wg.Done()
		prevSegs := 0
		prevPos := rep.DB().ReplicaPos()
		for {
			segs := rep.DB().AppliedSegments()
			pos := rep.DB().ReplicaPos()
			if segs < prevSegs {
				t.Errorf("applied segments went backwards: %d -> %d", prevSegs, segs)
				return
			}
			if pos.Before(prevPos) {
				t.Errorf("applied position went backwards: %v -> %v", prevPos, pos)
				return
			}
			prevSegs, prevPos = segs, pos
			select {
			case <-done:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Checker: whenever a full signature is computed with the version
	// stable across it, the answers must match the reference for exactly
	// that prefix — byte identity at matched versions, observed live.
	var matched atomic.Int32
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			k1 := rep.DB().AppliedSegments()
			sig := querySig(t, rep.DB())
			if k2 := rep.DB().AppliedSegments(); k1 == k2 {
				if sig != sigs[k1] {
					t.Errorf("replica answers at stable version %d differ from reference", k1)
					return
				}
				matched.Add(1)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	wg.Wait()
	waitCaughtUp(t, rep, pdb.db)
	// The final state is fully identical, and the live checker really did
	// observe matched versions along the way.
	if sig := querySig(t, rep.DB()); sig != sigs[n] {
		t.Error("soak end state diverges from reference")
	}
	expectIdentical(t, rep, pdb.db)
	if matched.Load() == 0 {
		t.Error("checker never observed a stable version; soak proves nothing")
	}
}
