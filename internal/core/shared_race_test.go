package core

import (
	"context"
	"sync"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/query"
	"strgindex/internal/video"
)

// TestSharedDBConcurrentSearchDuringIngest hammers a SharedDB with every
// query operator from several goroutines while another goroutine ingests
// segments — the live deployment shape (one camera writer, many query
// readers). Run under -race (the Makefile's test-race target) this proves
// the entry point's lock rule: index-routed searches run lock-free against
// copy-on-write snapshots, while the approximate tier (which trains
// mid-run here) and the predicate paths read state ingest appends to in
// place and so must hold the read lock. It also proves the locking
// composes with the worker pools inside search and ingest: pool
// goroutines must never outlive the lock scope that spawned them.
func TestSharedDBConcurrentSearchDuringIngest(t *testing.T) {
	prof := video.StreamProfiles()[0]
	prof.NumObjects = 6
	stream, err := video.GenerateStream(prof, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.Segments) < 2 {
		t.Fatalf("stream too short: %d segments", len(stream.Segments))
	}

	cfg := DefaultConfig()
	cfg.Concurrency = 4
	cfg.Approx = ApproxConfig{Enabled: true, NLists: 2, TrainSize: 4}
	db := OpenShared(cfg)
	// Seed the index so queries have something to hit from the start.
	if _, err := db.IngestSegment(prof.Name, stream.Segments[0]); err != nil {
		t.Fatal(err)
	}
	if db.db.vec.ivf.Trained() {
		t.Fatal("IVF trained on the seed segment; the run would not cross the training point")
	}

	traj := dist.Sequence{{10, 10}, {30, 30}, {50, 50}, {70, 70}}
	everywhere := query.SpatialNode{Kind: query.SpatialPasses,
		Rect: geom.Rect{Min: geom.Pt(-1e6, -1e6), Max: geom.Pt(1e6, 1e6)}}
	readers := []struct {
		q        *query.Query
		strategy query.Strategy
	}{
		{&query.Query{Similar: &query.SimilarClause{Trajectory: traj, K: 3}}, query.StrategyIndex},
		{&query.Query{Similar: &query.SimilarClause{Trajectory: traj, K: 3, Exact: true}}, query.StrategyIndex},
		{&query.Query{Similar: &query.SimilarClause{Trajectory: traj, Radius: 200}}, query.StrategyIndex},
		{&query.Query{Similar: &query.SimilarClause{Trajectory: traj, K: 3, Mode: query.ModeApprox}}, query.StrategyApprox},
		{&query.Query{Where: query.LengthNode{Min: 1}}, query.StrategyScan},
		{&query.Query{Where: everywhere, Similar: &query.SimilarClause{Trajectory: traj, K: 3}}, ""},
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				r := readers[(g+i)%len(readers)]
				res, err := db.QueryComposedCtx(context.Background(), r.q)
				if err != nil {
					t.Error(err)
					return
				}
				if r.strategy != "" && res.Plan.Strategy != r.strategy {
					t.Errorf("reader %d planned %s, want %s", (g+i)%len(readers), res.Plan.Strategy, r.strategy)
					return
				}
			}
		}(g)
	}
	for _, seg := range stream.Segments[1:] {
		if _, err := db.IngestSegment(prof.Name, seg); err != nil {
			close(done)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	if !db.db.vec.ivf.Trained() {
		t.Fatal("IVF never trained: the approx reader did not race the training rebuild")
	}
	st := db.Stats()
	if st.Segments != len(stream.Segments) {
		t.Fatalf("ingested %d segments, want %d", st.Segments, len(stream.Segments))
	}
	if st.OGs == 0 {
		t.Fatal("no OGs indexed")
	}
}
